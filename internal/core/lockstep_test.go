package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/solver"
	"bepi/internal/vec"
)

// TestWoodburyLockstepColumnsMatchSingleSolves runs a chain of hub deltas
// and checks, after each, that every Woodbury column Z[:,b] = S̃⁻¹·ΔS[:,j]
// the lockstep batch solved is Float64bits-equal to a one-column GMRES
// solve built here from the stored Δ, and that the corrected engine still
// answers within tolerance of ExactDense on the updated graph.
func TestWoodburyLockstepColumnsMatchSingleSolves(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 61))
	// A loose drift bound keeps the chain on the Woodbury path, whose rank
	// then grows round by round; the correction is exact at any drift.
	opts := Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10, MaxHubDrift: 1}
	e, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	hubDeltas := 0
	for round := 0; round < 6; round++ {
		ops := genHubDeltaOps(rng, g, e, 2+rng.Intn(4))
		if len(ops) == 0 {
			t.Skip("no hubs")
		}
		gNew := applyOpsToGraph(g, g.N(), ops)
		ne, st, err := e.ApplyDelta(gNew, ops)
		if errors.Is(err, ErrDeltaFull) || errors.Is(err, ErrDriftExceeded) {
			continue // a full rebuild's business, not the Woodbury path's
		}
		if err != nil {
			t.Fatalf("round %d: ApplyDelta: %v", round, err)
		}
		if st.Class != DeltaHub || ne.wood == nil {
			t.Fatalf("round %d: stats %+v, want a Woodbury-corrected hub delta", round, st)
		}
		hubDeltas++
		checkWoodburyColumns(t, ne)
		for _, seed := range []int{0, rng.Intn(g.N()), rng.Intn(g.N())} {
			got, _, err := ne.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ExactDense(gNew, ne.opts.C, seed)
			if err != nil {
				t.Fatal(err)
			}
			if d := vec.Dist2(got, want); d > 1e-7 {
				t.Fatalf("round %d seed %d: corrected answer off exact by %v", round, seed, d)
			}
		}
		g, e = gNew, ne
	}
	if hubDeltas < 4 {
		t.Fatalf("only %d of 6 rounds took the Woodbury path", hubDeltas)
	}
}

// checkWoodburyColumns re-solves every Woodbury column alone and demands
// bit equality with the stored one.
func checkWoodburyColumns(t *testing.T, e *Engine) {
	t.Helper()
	n2 := e.ord.N2
	opts := solver.GMRESOptions{Tol: e.opts.Tol, MaxIter: e.opts.MaxIter, Restart: e.opts.GMRESRestart, Precond: e.ilu}
	for b, j := range e.wood.cols {
		u := make([]float64, n2)
		for _, ce := range e.wood.deltas[j] {
			u[ce.row] = ce.val
		}
		want, _, err := solver.GMRES(e.schur, u, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range e.wood.z[b] {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("column %d: Z[%d] = %v, one-column solve %v", j, i, v, want[i])
			}
		}
	}
}

// TestQueryVectorBatchLockstepCancel cancels one query's context while the
// batch's lockstep Schur solve is running: that query alone fails with
// context.Canceled, and every batchmate's answer is Float64bits-equal to
// its own single Query — on a plain engine and on a Woodbury-corrected one.
func TestQueryVectorBatchLockstepCancel(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 63))
	opts := Options{Variant: VariantFull, HubRatio: 0.2}
	e, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*Engine{"plain": e}
	rng := rand.New(rand.NewSource(64))
	for guard := 0; guard < 10 && len(engines) < 2; guard++ {
		ops := genHubDeltaOps(rng, g, e, 3)
		if ne, _, err := e.ApplyDelta(applyOpsToGraph(g, g.N(), ops), ops); err == nil {
			engines["corrected"] = ne
		}
	}
	if len(engines) < 2 {
		t.Fatal("no hub delta took the Woodbury path")
	}
	seeds := []int{0, 5, 17, 42, 99, 5}
	const victim = 2
	for name, eng := range engines {
		qs := make([][]float64, len(seeds))
		ctxs := make([]context.Context, len(seeds))
		var cancel context.CancelFunc
		for k, s := range seeds {
			qs[k] = make([]float64, eng.N())
			qs[k][s] = 1
			ctxs[k] = context.Background()
		}
		ctxs[victim], cancel = context.WithCancel(context.Background())
		// The first solver iteration of the batch ends the victim's context;
		// admission has passed, so only the lockstep solve can see it.
		eng.SetIterHook(func(int, float64) { cancel() })
		res, _, errs := eng.QueryVectorBatch(ctxs, qs, eng.NewWorkspace())
		eng.SetIterHook(nil)
		for k, s := range seeds {
			if k == victim {
				if !errors.Is(errs[k], context.Canceled) || res[k] != nil {
					t.Fatalf("%s: victim err=%v, want context.Canceled and no answer", name, errs[k])
				}
				continue
			}
			if errs[k] != nil {
				t.Fatalf("%s: query %d (seed %d): %v", name, k, s, errs[k])
			}
			want, _, err := eng.Query(s)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(res[k][i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: seed %d node %d: batch %v single %v", name, s, i, res[k][i], want[i])
				}
			}
		}
	}
}
