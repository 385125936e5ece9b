package obs

import "time"

// Canonical histogram family names shared by the shard exposition, the
// /metrics/snapshot payload, and the coordinator's fleet aggregation. A
// merged family is only meaningful because every process builds it over the
// identical bucket layout (see the *Buckets constructors).
const (
	FamilyQueryLatency = "bepi_query_latency_seconds"
	FamilyBatchSolve   = "bepi_batch_solve_seconds"
	FamilyQueueWait    = "bepi_queue_wait_seconds"
	FamilyIterations   = "bepi_query_iterations"
	FamilyResidual     = "bepi_query_residual"
	FamilySchurApply   = "bepi_schur_apply_seconds"
	FamilyPrecondApply = "bepi_precond_apply_seconds"
	FamilyTopKSaved    = "bepi_topk_iters_saved"
	FamilyRebuild      = "bepi_rebuild_seconds"
)

// MetricsSnapshot is one process's mergeable metrics export: every
// histogram as a HistSnapshot keyed by canonical family name, plus counters
// and build identity. Shards serve it at GET /metrics/snapshot; the
// coordinator fetches and merges them into fleet-wide quantiles.
type MetricsSnapshot struct {
	Replica    string                  `json:"replica,omitempty"`
	TakenAt    time.Time               `json:"taken_at"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	Counters   map[string]int64        `json:"counters,omitempty"`
	Build      BuildInfo               `json:"build,omitempty"`
}

// BuildInfo identifies what is running where — surfaced as the
// bepi_build_info gauge and carried on snapshots so a mixed-version fleet
// is visible at the coordinator.
type BuildInfo struct {
	Version   string `json:"version,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
}

// HistogramSnapshots exports every histogram the observer carries, keyed by
// canonical family name. Nil-valued histograms (and a nil observer) yield
// an empty map entry-wise — absent, not zero.
func (o *Observer) HistogramSnapshots() map[string]HistSnapshot {
	out := make(map[string]HistSnapshot, 9)
	if o == nil {
		return out
	}
	put := func(family string, h *Histogram) {
		if h != nil {
			out[family] = h.Snapshot()
		}
	}
	put(FamilyQueryLatency, o.QueryLatency)
	put(FamilyBatchSolve, o.BatchLatency)
	put(FamilyQueueWait, o.QueueWait)
	put(FamilyIterations, o.Iterations)
	put(FamilyResidual, o.Residual)
	put(FamilySchurApply, o.SchurApply)
	put(FamilyPrecondApply, o.PrecondApply)
	put(FamilyTopKSaved, o.TopKSaved)
	put(FamilyRebuild, o.Rebuild)
	return out
}

// MergeMetricsSnapshots folds per-process snapshots into one fleet-wide
// snapshot: histogram families merge bucket-wise (families present in only
// some snapshots still merge — an empty operand is the identity), counters
// add. Families whose bounds disagree across snapshots are dropped with
// their name returned in mismatched, never silently misbinned.
func MergeMetricsSnapshots(snaps []MetricsSnapshot) (merged MetricsSnapshot, mismatched []string) {
	merged.Histograms = make(map[string]HistSnapshot)
	merged.Counters = make(map[string]int64)
	bad := make(map[string]bool)
	for _, s := range snaps {
		if s.TakenAt.After(merged.TakenAt) {
			merged.TakenAt = s.TakenAt
		}
		for family, h := range s.Histograms {
			if bad[family] {
				continue
			}
			m, err := merged.Histograms[family].Merge(h)
			if err != nil {
				bad[family] = true
				delete(merged.Histograms, family)
				mismatched = append(mismatched, family)
				continue
			}
			merged.Histograms[family] = m
		}
		for name, v := range s.Counters {
			merged.Counters[name] += v
		}
	}
	return merged, mismatched
}
