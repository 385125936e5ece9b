package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bepi/internal/lu"
	"bepi/internal/vec"
)

// referenceGMRES is the single-RHS GMRES loop as it stood before the
// lockstep batch solver, frozen as the bit-level reference: it recomputes
// the residual of the x₀ = 0 start with one operator and one
// preconditioner application instead of reusing M⁻¹b.
func referenceGMRES(a Operator, b []float64, opts GMRESOptions) ([]float64, Stats, error) {
	opts = opts.withDefaults()
	n := len(b)
	ar := arena{n: n}
	x := ar.takeZero()
	if n == 0 {
		return x, Stats{Converged: true, StopReason: StopTolerance}, nil
	}
	cycle := opts.Restart
	if cycle <= 0 || cycle > opts.MaxIter {
		cycle = opts.MaxIter
	}
	var stats Stats
	t := ar.take()
	opts.Precond.Apply(t, b)
	normT := vec.Norm2(t)
	if normT == 0 {
		return x, Stats{Converged: true, StopReason: StopTolerance}, nil
	}
	scratch := ar.take()
	for stats.Iterations < opts.MaxIter {
		if err := opts.ctxErr(); err != nil {
			return x, stats, fmt.Errorf("solver: aborted after %d iterations: %w", stats.Iterations, err)
		}
		a.MulVec(scratch, x)
		vec.Sub(scratch, b, scratch)
		z := ar.take()
		opts.Precond.Apply(z, scratch)
		beta := vec.Norm2(z)
		stats.Residual = beta / normT
		if stats.Residual <= opts.Tol {
			stats.Converged = true
			stats.StopReason = StopTolerance
			return x, stats, nil
		}
		m := cycle
		if rem := opts.MaxIter - stats.Iterations; m > rem {
			m = rem
		}
		v := make([][]float64, 1, m+1)
		vec.Scale(1/beta, z)
		v[0] = z
		h := make([][]float64, 0, m)
		cs := make([]float64, 0, m)
		sn := make([]float64, 0, m)
		g := make([]float64, 1, m+1)
		g[0] = beta
		converged := false
		steps := 0
		for j := 0; j < m; j++ {
			if err := opts.ctxErr(); err != nil {
				x = assemble(ar, x, v, h, g, steps)
				return x, stats, fmt.Errorf("solver: aborted after %d iterations: %w", stats.Iterations, err)
			}
			w := ar.take()
			a.MulVec(scratch, v[j])
			opts.Precond.Apply(w, scratch)
			hj := make([]float64, j+2)
			for i := 0; i <= j; i++ {
				hj[i] = vec.Dot(w, v[i])
				vec.AXPY(-hj[i], v[i], w)
			}
			hj[j+1] = vec.Norm2(w)
			breakdown := hj[j+1] < 1e-300
			if !breakdown {
				vec.Scale(1/hj[j+1], w)
				v = append(v, w)
			}
			for i := 0; i < j; i++ {
				hj[i], hj[i+1] = cs[i]*hj[i]+sn[i]*hj[i+1], -sn[i]*hj[i]+cs[i]*hj[i+1]
			}
			c, s := givens(hj[j], hj[j+1])
			cs, sn = append(cs, c), append(sn, s)
			hj[j] = c*hj[j] + s*hj[j+1]
			hj[j+1] = 0
			h = append(h, hj)
			g = append(g, -s*g[j])
			g[j] = c * g[j]
			stats.Iterations++
			steps = j + 1
			stats.Residual = math.Abs(g[j+1]) / normT
			if opts.OnIteration != nil {
				opts.OnIteration(stats.Iterations, stats.Residual)
			}
			if opts.Callback != nil {
				opts.Callback(stats.Iterations, assemble(arena{n: n}, x, v, h, g, steps))
			}
			if stats.Residual <= opts.Tol || breakdown {
				converged = true
				break
			}
		}
		x = assemble(ar, x, v, h, g, steps)
		if converged {
			stats.Converged = true
			if stats.Residual <= opts.Tol {
				stats.StopReason = StopTolerance
			} else {
				stats.StopReason = StopBreakdown
			}
			return x, stats, nil
		}
	}
	stats.StopReason = StopMaxIter
	return x, stats, fmt.Errorf("after %d iterations (residual %.3g): %w",
		stats.Iterations, stats.Residual, ErrNotConverged)
}

// singleOnly hides an operator's or preconditioner's batch method, so
// GMRESBatch takes its one-vector-at-a-time fallback.
type singleOnly struct{ Operator }

type singlePrecond struct{ Preconditioner }

// solveResult is one RHS's outcome plus its per-iteration trace: the
// residuals OnIteration saw and, where a Callback is set, every iterate.
type solveResult struct {
	x     []float64
	stats Stats
	err   error
	trace []float64
}

// sameResult reports the first difference between two outcomes: solution
// bits, stats, error text or the trace.
func sameResult(got, want solveResult) error {
	if len(got.x) != len(want.x) {
		return fmt.Errorf("len %d want %d", len(got.x), len(want.x))
	}
	for i := range got.x {
		if math.Float64bits(got.x[i]) != math.Float64bits(want.x[i]) {
			return fmt.Errorf("x[%d] = %v want %v", i, got.x[i], want.x[i])
		}
	}
	if got.stats != want.stats {
		return fmt.Errorf("stats %+v want %+v", got.stats, want.stats)
	}
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		return fmt.Errorf("err %v want %v", got.err, want.err)
	}
	if len(got.trace) != len(want.trace) {
		return fmt.Errorf("trace of %d values want %d", len(got.trace), len(want.trace))
	}
	for i := range got.trace {
		if math.Float64bits(got.trace[i]) != math.Float64bits(want.trace[i]) {
			return fmt.Errorf("trace[%d] = %v want %v", i, got.trace[i], want.trace[i])
		}
	}
	return nil
}

// batchCase is one RHS of a batch: its vector and a builder for its
// options, called afresh for every solve so that per-solve state (a
// context canceled from the RHS's own OnIteration, the residual trace) is
// never shared between the batch and the references.
type batchCase struct {
	b    []float64
	opts func(trace *[]float64) GMRESOptions
}

func solveBatch(a Operator, cases []batchCase) []solveResult {
	bs := make([][]float64, len(cases))
	opts := make([]GMRESOptions, len(cases))
	out := make([]solveResult, len(cases))
	for k, c := range cases {
		bs[k] = append([]float64(nil), c.b...)
		opts[k] = c.opts(&out[k].trace)
	}
	xs, stats, errs := GMRESBatch(a, bs, opts)
	for k := range out {
		out[k].x, out[k].stats, out[k].err = xs[k], stats[k], errs[k]
	}
	return out
}

func solveOne(solve func(Operator, []float64, GMRESOptions) ([]float64, Stats, error), a Operator, c batchCase) solveResult {
	var r solveResult
	r.x, r.stats, r.err = solve(a, append([]float64(nil), c.b...), c.opts(&r.trace))
	return r
}

// checkBatch solves the cases as one batch and each alone, through GMRES
// and through the frozen reference, and requires all three to agree bit
// for bit on every RHS.
func checkBatch(t *testing.T, name string, a Operator, cases []batchCase) []solveResult {
	t.Helper()
	got := solveBatch(a, cases)
	for k, c := range cases {
		if err := sameResult(got[k], solveOne(GMRES, a, c)); err != nil {
			t.Fatalf("%s: rhs %d of %d vs GMRES: %v", name, k, len(cases), err)
		}
		if err := sameResult(got[k], solveOne(referenceGMRES, a, c)); err != nil {
			t.Fatalf("%s: rhs %d of %d vs reference: %v", name, k, len(cases), err)
		}
	}
	return got
}

// TestGMRESBatchMatchesSingleSolves is the lockstep contract: for batch
// widths 1–6, every RHS's solution, stats, error and iteration trace are
// Float64bits-equal to GMRES on that RHS alone and to the pre-batch
// reference loop. The batches mix per-RHS tolerances (so iteration counts
// differ and RHS leave at different rounds), a zero RHS, restarted
// cycles, an RHS that exhausts MaxIter, and the batched and fallback
// kernel paths.
func TestGMRESBatchMatchesSingleSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 24; trial++ {
		n := 20 + rng.Intn(60)
		m := randDiagDominant(rng, n, 0.15)
		var a Operator = m
		var pre Preconditioner
		switch trial % 4 {
		case 1:
			f, err := lu.FactorILU0(m)
			if err != nil {
				t.Fatal(err)
			}
			pre = f
		case 2:
			f, err := lu.FactorILU0(m)
			if err != nil {
				t.Fatal(err)
			}
			a, pre = singleOnly{m}, singlePrecond{f}
		}
		restart := 0
		if trial%3 == 1 {
			restart = 3 + rng.Intn(4)
		}
		K := 1 + trial%6
		zero := rng.Intn(K)
		capped := (zero + 1) % K
		cases := make([]batchCase, K)
		sawMaxIter, sawSpread := false, false
		for k := range cases {
			b := make([]float64, n)
			if k != zero || K == 1 {
				for i := range b {
					b[i] = rng.NormFloat64()
				}
			}
			tol := math.Pow(10, -4-float64(rng.Intn(9)))
			maxIter := 0
			if k == capped && K > 1 {
				tol, maxIter = 1e-15, 2
			}
			cases[k] = batchCase{b: b, opts: func(trace *[]float64) GMRESOptions {
				return GMRESOptions{
					Tol: tol, MaxIter: maxIter, Restart: restart, Precond: pre,
					OnIteration: func(_ int, res float64) { *trace = append(*trace, res) },
					Callback:    func(_ int, x []float64) { *trace = append(*trace, x...) },
				}
			}}
		}
		got := checkBatch(t, fmt.Sprintf("trial %d", trial), a, cases)
		for k := range got {
			sawMaxIter = sawMaxIter || errors.Is(got[k].err, ErrNotConverged)
			sawSpread = sawSpread || got[k].stats.Iterations != got[0].stats.Iterations
		}
		if K > 2 && (!sawMaxIter || !sawSpread) {
			t.Fatalf("trial %d: batch lacks a MaxIter RHS (%v) or differing iteration counts (%v)", trial, sawMaxIter, sawSpread)
		}
	}
}

// TestGMRESBatchClosedKrylovSpaces covers RHS whose Krylov spaces close
// at different steps: on a diagonal operator an RHS supported on k+1
// distinct eigenvalues is solved after k+1 steps, and a unit vector's
// first Arnoldi vector is exactly annihilated (the breakdown branch).
func TestGMRESBatchClosedKrylovSpaces(t *testing.T) {
	n := 12
	d := make(diagOp, n)
	for i := range d {
		d[i] = float64(i + 1)
	}
	cases := make([]batchCase, 5)
	for k := range cases {
		b := make([]float64, n)
		for i := 0; i <= k; i++ {
			b[i] = float64(i + 2)
		}
		cases[k] = batchCase{b: b, opts: func(trace *[]float64) GMRESOptions {
			return GMRESOptions{Tol: 1e-12, OnIteration: func(_ int, res float64) { *trace = append(*trace, res) }}
		}}
	}
	got := checkBatch(t, "closed", d, cases)
	for k, r := range got {
		if r.stats.Iterations != k+1 || !r.stats.Converged {
			t.Fatalf("rhs %d: stats %+v, want convergence after %d steps", k, r.stats, k+1)
		}
	}
}

// TestGMRESBatchCancelMidBatch cancels one RHS's context from its own
// OnIteration hook mid-solve: only that RHS errors (wrapping
// context.Canceled, with the iterate assembled so far, exactly as a lone
// GMRES canceled at the same step returns it), and its batchmates finish
// bit-identical to their own solves.
func TestGMRESBatchCancelMidBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 70
	m := randDiagDominant(rng, n, 0.2)
	f, err := lu.FactorILU0(m)
	if err != nil {
		t.Fatal(err)
	}
	const victim, cancelAt = 2, 3
	cases := make([]batchCase, 5)
	for k := range cases {
		k := k
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		cases[k] = batchCase{b: b, opts: func(trace *[]float64) GMRESOptions {
			o := GMRESOptions{Tol: 1e-13, Precond: f, Restart: 4}
			var cancel context.CancelFunc
			if k == victim {
				o.Ctx, cancel = context.WithCancel(context.Background())
			}
			o.OnIteration = func(iter int, res float64) {
				*trace = append(*trace, res)
				if cancel != nil && iter == cancelAt {
					cancel()
				}
			}
			return o
		}}
	}
	got := checkBatch(t, "cancel", m, cases)
	for k, r := range got {
		if k == victim {
			if !errors.Is(r.err, context.Canceled) || r.stats.Iterations != cancelAt {
				t.Fatalf("victim: err=%v iterations=%d, want context.Canceled after %d", r.err, r.stats.Iterations, cancelAt)
			}
			continue
		}
		if r.err != nil || r.stats.Iterations <= cancelAt {
			t.Fatalf("rhs %d: err=%v iterations=%d, want a full solve past the cancellation", k, r.err, r.stats.Iterations)
		}
	}
}

// TestGMRESBatchRejectsMisuse pins the two preconditions the lockstep
// solver cannot honor: a shared preconditioner and unshared workspaces.
func TestGMRESBatchRejectsMisuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randDiagDominant(rng, 10, 0.3)
	f, err := lu.FactorILU0(m)
	if err != nil {
		t.Fatal(err)
	}
	bs := [][]float64{make([]float64, 10), make([]float64, 10)}
	ws := &Workspace{}
	for name, opts := range map[string][]GMRESOptions{
		"precond":   {{Precond: f}, {}},
		"workspace": {{Work: ws}, {Work: ws}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: GMRESBatch did not panic", name)
				}
			}()
			GMRESBatch(m, bs, opts)
		}()
	}
}
