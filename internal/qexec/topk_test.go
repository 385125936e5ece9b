package qexec

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"bepi/internal/core"
	"bepi/internal/gen"
	"bepi/internal/graph"
)

// skewedEng builds a fresh hub-heavy R-MAT engine, large enough that a
// query takes several solver iterations.
func skewedEng(t testing.TB) *core.Engine {
	t.Helper()
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 42))
	e, err := core.Preprocess(g, core.Options{Variant: core.VariantFull, HubRatio: 0.2})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	return e
}

// sameRanking fails unless both rankings agree node for node and score for
// score, bit for bit.
func sameRanking(t *testing.T, tag string, want, got []core.Ranked) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: size mismatch: want %d, got %d", tag, len(want), len(got))
	}
	for i := range want {
		if want[i].Node != got[i].Node || math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			t.Fatalf("%s: rank %d differs\nwant %v\ngot  %v", tag, i, want, got)
		}
	}
}

// TestTopKMatchesFullSolve checks the executor's TopK ranks exactly what
// the engine's TopK ranks, across seeds and ks, with the cache off so
// every call solves.
func TestTopKMatchesFullSolve(t *testing.T) {
	e := skewedEng(t)
	ex := New(e, Config{CacheEntries: -1})
	defer ex.Close()
	ctx := context.Background()
	for _, seed := range []int{0, 7, 123} {
		for _, k := range []int{1, 10, 100} {
			want, err := e.TopK(seed, k)
			if err != nil {
				t.Fatal(err)
			}
			got, res, err := ex.TopK(ctx, seed, k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached {
				t.Fatalf("seed %d k %d: cache hit with the cache disabled", seed, k)
			}
			sameRanking(t, fmt.Sprintf("seed %d k %d", seed, k), want, got)
		}
	}
}

// TestTopKCachedOnSecondCall is the cache regression test: a TopK solve
// stores its full-tolerance vector, so the same TopK again is a cache hit,
// and both rankings equal core.Engine.TopK bit for bit. It runs on a
// skewed R-MAT graph and on the pathological graphs of the core tests.
func TestTopKCachedOnSecondCall(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		seeds []int
	}{
		{"rmat", gen.RMAT(gen.DefaultRMAT(9, 8, 42)), []int{0, 7, 123, 400}},
		{"near-uniform-ring", gen.WattsStrogatz(300, 6, 0, 7), []int{0, 149}},
		{"all-deadends", graph.MustNew(5, nil), []int{2}},
		{"self-loop-only", graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 0}}), []int{0, 1}},
		{"deadend-star", graph.MustNew(4, []graph.Edge{{Src: 0, Dst: 3}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}}), []int{0, 3}},
		{"two-cycle", graph.MustNew(2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}), []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := core.Preprocess(tc.g, core.Options{Variant: core.VariantFull, HubRatio: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			ex := New(e, Config{})
			defer ex.Close()
			ctx := context.Background()
			for _, seed := range tc.seeds {
				const k = 10
				want, err := e.TopK(seed, k)
				if err != nil {
					t.Fatal(err)
				}
				first, res, err := ex.TopK(ctx, seed, k)
				if err != nil {
					t.Fatal(err)
				}
				if res.Cached {
					t.Fatalf("seed %d: first TopK cannot be a cache hit", seed)
				}
				sameRanking(t, fmt.Sprintf("seed %d first", seed), want, first)
				second, res, err := ex.TopK(ctx, seed, k)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Cached {
					t.Fatalf("seed %d: second TopK was not served from the cache", seed)
				}
				sameRanking(t, fmt.Sprintf("seed %d second", seed), want, second)
			}
		})
	}
}

// TestTopKCacheHitAnyK is the regression for the cache interaction: a
// cached full score vector must satisfy a TopK for ANY k — including a k
// larger than any previously requested — with a rank only, no re-solve.
func TestTopKCacheHitAnyK(t *testing.T) {
	e := skewedEng(t)
	ex := New(e, Config{})
	defer ex.Close()
	ctx := context.Background()
	const seed = 3
	full, err := ex.Query(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cached {
		t.Fatal("first query cannot be a cache hit")
	}
	executed := ex.Metrics().Executed

	top, res, err := ex.TopK(ctx, seed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("TopK after Query must be served from the cached full vector")
	}
	sameRanking(t, "k=5", core.RankTopK(full.Scores, 5, seed), top)

	// Larger k than anything asked before: still a hit, still no solve.
	top, res, err = ex.TopK(ctx, seed, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("larger-k TopK must still rank the cached full vector, not re-solve")
	}
	sameRanking(t, "k=50", core.RankTopK(full.Scores, 50, seed), top)

	if m := ex.Metrics(); m.Executed != executed {
		t.Fatalf("cache-served TopK ran a solve: executed %d -> %d", executed, m.Executed)
	}
}

// TestTopKParallelCoalesce races many TopK calls — identical (seed, k)
// twins that should coalesce onto one flight, TopKs on other seeds, and
// full-vector queries interleaved — under the race detector.
func TestTopKParallelCoalesce(t *testing.T) {
	e := skewedEng(t)
	ex := New(e, Config{})
	defer ex.Close()
	ctx := context.Background()
	want, err := e.TopK(11, 10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 3 {
			case 0: // identical twins — coalesce candidates
				top, _, err := ex.TopK(ctx, 11, 10)
				if err != nil {
					errCh <- err
					return
				}
				if len(top) != len(want) {
					errCh <- fmt.Errorf("worker %d: %d results, want %d", w, len(top), len(want))
					return
				}
				for i := range want {
					if top[i] != want[i] {
						errCh <- fmt.Errorf("worker %d: rank %d is %v, want %v", w, i, top[i], want[i])
						return
					}
				}
			case 1: // another seed and k
				if _, _, err := ex.TopK(ctx, (w*37)%e.N(), 5); err != nil {
					errCh <- err
				}
			default: // full-vector traffic interleaved
				if _, err := ex.Query(ctx, (w*53)%e.N()); err != nil {
					errCh <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
