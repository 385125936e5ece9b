package bench

import (
	"fmt"
	"sort"
	"time"

	"bepi/internal/core"
	"bepi/internal/gen"
)

// topkScale maps the suite size to the skewed-RMAT scale the top-k
// experiment runs on (the full size is the scale-15 configuration the
// acceptance numbers quote).
func topkScale(s Size) int {
	switch s {
	case Full:
		return 15
	case Small:
		return 12
	default:
		return 9
	}
}

// topkQueries is the measured query count per k.
func topkQueries(s Size) int {
	switch s {
	case Full:
		return 100
	case Small:
		return 60
	default:
		return 30
	}
}

// topkVariants are the engine configurations the experiment contrasts:
// VariantFull is the production default, where the ILU-preconditioned
// solve converges in a handful of iterations and the early stop can only
// shave the tail of an already-short solve; VariantB has no
// preconditioner, so the solve runs 2-3x longer — the regime the
// k-dash-style certificate is built for; VariantS
// materializes a small sparsified S whose iterations are nearly free, so
// even large iteration savings barely move the total.
var topkVariants = []struct {
	name    string
	variant core.Variant
}{
	{"full+ILU", core.VariantFull},
	{"no-precond", core.VariantB},
	{"sparse-S", core.VariantS},
}

// medianRatio returns the median of the paired latency ratios (0 when
// empty). Sorts in place.
func medianRatio(rs []float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	sort.Float64s(rs)
	return rs[len(rs)/2]
}

func fmtRatio(r float64) string {
	if r == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", r)
}

// TopK measures the bound-pruned exact top-k search against the
// full-tolerance baseline on a skewed RMAT graph: per engine variant and
// per k, the latency quantiles of Engine.TopK (full Schur solve, then
// rank) vs Engine.TopKBounded (solve halts on the k-th-gap certificate),
// the paired per-seed speedup, how often the certificate fired, the mean
// iterations it saved, and — the point of the exercise — that every
// bounded result named the exact same node set as the full solve.
func TopK(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	scale := topkScale(cfg.Size)
	g := gen.RMAT(gen.DefaultRMAT(scale, 8, 42))
	queries := topkQueries(cfg.Size)

	t := &Table{
		Title: fmt.Sprintf("Exact top-k early termination (skewed RMAT scale %d)", scale),
		Note: "full = solve to tolerance then rank; bounded = stop on the calibrated k-th-gap " +
			"certificate; sets verifies the bounded node set equals the full solve's for every " +
			"query. spd = median over seeds of that seed's full/bounded latency ratio (paired, " +
			"so the ~half of RMAT seeds with trivial 0-iteration solves can't mask the rest); " +
			"stop spd = the same median over early-stopped seeds only. Savings track solver " +
			"iterations: the ILU-preconditioned solve converges in a handful of iterations so " +
			"the stop shaves only its tail; the unpreconditioned solve (BePI-B) " +
			"runs long enough for the certificate to pay; the sparsified-S solve iterates on a " +
			"small matrix whose iterations are nearly free.",
		Header: []string{"variant", "k", "full p50", "full p99", "bounded p50", "bounded p99",
			"spd", "stop spd", "early stop", "iters saved", "sets"},
	}
	for _, v := range topkVariants {
		e, err := core.Preprocess(g, core.Options{
			Variant: v.variant, Tol: cfg.Tol, HubRatio: 0.2,
			Parallelism:  cfg.Parallelism,
			MemoryBudget: cfg.Budget.Memory, Deadline: cfg.Budget.Deadline,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: topk preprocess %s: %w", v.name, err)
		}
		// One calibration pass outside the timed region, like a server would.
		if err := e.CalibrateBound(); err != nil {
			return nil, fmt.Errorf("bench: topk calibration %s: %w", v.name, err)
		}
		n := e.N()
		for _, k := range []int{1, 10, 100} {
			fullLat := make([]time.Duration, 0, queries)
			boundLat := make([]time.Duration, 0, queries)
			ratios := make([]float64, 0, queries)
			stopRatios := make([]float64, 0, queries)
			early, savedSum, mismatches := 0, 0, 0
			for i := 0; i < queries; i++ {
				seed := (i * 131) % n

				// Both paths are timed as the min over a few repeats: at
				// these scales a query is a few hundred microseconds and
				// scheduler jitter would otherwise dominate the comparison.
				var want []core.Ranked
				var got []core.Ranked
				var stats core.TopKStats
				var err error
				fullBest, boundBest := time.Duration(0), time.Duration(0)
				for rep := 0; rep < 3; rep++ {
					start := time.Now()
					want, err = e.TopK(seed, k)
					if err != nil {
						return nil, fmt.Errorf("bench: topk full solve seed %d: %w", seed, err)
					}
					if d := time.Since(start); rep == 0 || d < fullBest {
						fullBest = d
					}

					start = time.Now()
					got, stats, err = e.TopKBounded(seed, k)
					if err != nil {
						return nil, fmt.Errorf("bench: topk bounded solve seed %d: %w", seed, err)
					}
					if d := time.Since(start); rep == 0 || d < boundBest {
						boundBest = d
					}
				}
				fullLat = append(fullLat, fullBest)
				boundLat = append(boundLat, boundBest)
				if boundBest > 0 {
					r := float64(fullBest) / float64(boundBest)
					ratios = append(ratios, r)
					if stats.EarlyStopped {
						stopRatios = append(stopRatios, r)
					}
				}

				if stats.EarlyStopped {
					early++
					savedSum += stats.SavedIters
				}
				set := make(map[int]bool, len(want))
				for _, r := range want {
					set[r.Node] = true
				}
				if len(got) != len(want) {
					mismatches++
				} else {
					for _, r := range got {
						if !set[r.Node] {
							mismatches++
							break
						}
					}
				}
			}
			fp50, bp50 := durQuantile(fullLat, 0.50), durQuantile(boundLat, 0.50)
			saved := "-"
			if early > 0 {
				saved = fmt.Sprintf("%.0f", float64(savedSum)/float64(early))
			}
			sets := "exact"
			if mismatches > 0 {
				sets = fmt.Sprintf("MISMATCH×%d", mismatches)
			}
			t.AddRow(v.name,
				fmt.Sprintf("%d", k),
				FmtDuration(fp50), FmtDuration(durQuantile(fullLat, 0.99)),
				FmtDuration(bp50), FmtDuration(durQuantile(boundLat, 0.99)),
				fmtRatio(medianRatio(ratios)), fmtRatio(medianRatio(stopRatios)),
				fmt.Sprintf("%.0f%%", 100*float64(early)/float64(queries)),
				saved,
				sets)
		}
	}
	return []*Table{t}, nil
}
