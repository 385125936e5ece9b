package main

import "fmt"

// metricDef declares one reported metric. The end-to-end and per-layer
// lists below are the single source of the names BENCHMARK.json carries;
// the self-test checks the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks a deterministic work count: on one seed it repeats
	// exactly, so -compare flags any change in it regardless of noise.
	Exact bool
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, for the operation it exists to measure:
//
//	workload       latency_p50_ms of                throughput_qps
//	solve-cold     Engine.Query                     queries/s, one closed-loop client
//	serve-zipf     GET /query at the reference      highest arrival rate whose p95
//	               rate, from due time              meets the latency limit
//	update-stream  flush to new generation serving  reader top-10 queries/s while
//	                                                the stream runs
//
// Tail latencies are printed by name in every run but are not in this
// list: on shared vCPUs their run-to-run spread is wider than any bound
// the benchmark may set (README.md has the measurements).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "index_bytes", Unit: "bytes", Better: "lower"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher"},
}

// perLayer are the traced run's metrics, grouped by the layer they time.
// A layer a workload leaves idle reports 0 there. README.md maps each to
// the end-to-end metrics it should move.
var perLayer = []metricDef{
	{Name: "error_ratio", Unit: "ratio", Better: "lower"},

	{Name: "reorder.slashburn_ms", Unit: "ms", Better: "lower"},
	{Name: "reorder.hubs", Unit: "count", Better: "lower", Exact: true},
	{Name: "reorder.blocks", Unit: "count", Better: "higher", Exact: true},

	{Name: "core.build_h_ms", Unit: "ms", Better: "lower"},
	{Name: "core.schur_ms", Unit: "ms", Better: "lower"},
	{Name: "core.schur_nnz", Unit: "count", Better: "lower", Exact: true},

	{Name: "lu.h11_factor_ms", Unit: "ms", Better: "lower"},
	{Name: "lu.ilu_factor_ms", Unit: "ms", Better: "lower"},
	{Name: "lu.ilu_nnz", Unit: "count", Better: "lower", Exact: true},
	{Name: "lu.ilu_apply_us", Unit: "us", Better: "lower"},
	{Name: "lu.ilu_apply_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "lu.ilu_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "lu.ilu_stream_share", Unit: "ratio", Better: "higher"},

	{Name: "sparse.schur_spmv_us", Unit: "us", Better: "lower"},
	{Name: "sparse.schur_spmv_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "sparse.spmv_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "sparse.spmv_stream_share", Unit: "ratio", Better: "higher"},
	{Name: "sparse.stream_gbps", Unit: "GB/s", Better: "higher"},

	{Name: "solver.iters_per_query", Unit: "count", Better: "lower", Exact: true},
	{Name: "solver.gmres_self_ms", Unit: "ms", Better: "lower"},

	{Name: "core.permute_ms", Unit: "ms", Better: "lower"},
	{Name: "core.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "core.back_ms", Unit: "ms", Better: "lower"},

	{Name: "qexec.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "qexec.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "qexec.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "qexec.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "qexec.queue_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "qexec.shed", Unit: "count", Better: "lower"},

	{Name: "cluster.backend_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.route_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.http_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},

	{Name: "dynamic.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.mode_full", Unit: "count", Better: "lower", Exact: true},
	{Name: "dynamic.mode_delta_spoke", Unit: "count", Better: "higher", Exact: true},
	{Name: "dynamic.mode_delta_hub", Unit: "count", Better: "higher", Exact: true},
	{Name: "graph.patch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.apply_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "core.delta_affected_cols", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.delta_rank", Unit: "count", Better: "lower", Exact: true},

	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what a workload run hands back: end-to-end values (untraced)
// or layer values (traced) by name, the operation tally and the human
// summary lines printed before the result.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64 // errors, refused requests and rejected answers
	rejected  int64 // answers the oracle rejected (subset of failed)
	notes     []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// alias prints a value under the name the workload's own vocabulary gives
// it (e.g. serve_p50_ms for serve-zipf's latency_p50_ms), with a note on
// how the result line carries it.
func (r *report) alias(name string, v float64, unit, note string) {
	r.notef("%-28s %14.6g %s (%s)", name, v, unit, note)
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// reject counts an answer the oracle refused.
func (r *report) reject(err error) {
	r.failed++
	r.rejected++
	r.notef("REJECTED: %v", err)
}

// findDef looks a metric up in either list.
func findDef(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
