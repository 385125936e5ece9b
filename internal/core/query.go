package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"bepi/internal/solver"
	"bepi/internal/vec"
)

// Query computes the RWR score vector for the given seed node
// (Algorithm 2/4). The returned vector is indexed by the original node ids.
func (e *Engine) Query(seed int) ([]float64, QueryStats, error) {
	if seed < 0 || seed >= e.n {
		return nil, QueryStats{}, fmt.Errorf("core: seed %d out of range [0,%d)", seed, e.n)
	}
	q := make([]float64, e.n)
	q[seed] = 1
	return e.QueryVector(q)
}

// QueryVector computes the personalized PageRank vector for an arbitrary
// starting distribution q (indexed by original node ids). RWR is the
// special case of a single-entry q; multi-seed q gives PPR, which the
// block-elimination machinery supports unchanged. It is the batch-of-one
// case of QueryVectorBatch.
func (e *Engine) QueryVector(q []float64) ([]float64, QueryStats, error) {
	return e.QueryVectorWS(context.Background(), q, nil)
}

// Kernel names reported through SetKernelHook.
const (
	// KernelSchur is one application of the Schur operator (the SpMV on S)
	// inside an iterative solve.
	KernelSchur = "schur"
	// KernelPrecond is one application of the ILU(0) preconditioner.
	KernelPrecond = "precond"
)

// solveSchur runs the configured iterative solver on S·r2 = q̃2.
func (e *Engine) solveSchur(qt2 []float64, cb func(int, []float64)) ([]float64, solver.Stats, error) {
	return e.solveSchurCtx(context.Background(), qt2, nil, cb)
}

// solveSchurCtx is solveSchur with a cancellation context threaded into the
// iterative solver and an optional reusable Krylov workspace. With a
// workspace, the returned solution points into it and is only valid until
// the next solve on that workspace.
func (e *Engine) solveSchurCtx(ctx context.Context, qt2 []float64, ws *solver.Workspace, cb func(int, []float64)) ([]float64, solver.Stats, error) {
	op, opts := e.schurSolveOptions(ctx, ws)
	opts.Callback = cb
	return e.runSchurSolve(op, qt2, opts)
}

// schurSolveOptions returns the operator every Schur solve runs on — the
// stored S — and the solver options they share: tolerance, iteration
// budget, preconditioner, telemetry hooks. The operator and preconditioner
// are wrapped with the kernel-timing shims when a kernel hook is installed.
// Callers add their per-solve hooks (Callback, Probe, StopWhen) on top.
func (e *Engine) schurSolveOptions(ctx context.Context, ws *solver.Workspace) (solver.Operator, solver.GMRESOptions) {
	var op solver.Operator = e.schur
	opts := solver.GMRESOptions{
		Tol:         e.opts.Tol,
		MaxIter:     e.opts.MaxIter,
		Restart:     e.opts.GMRESRestart,
		OnIteration: e.iterHook,
		Ctx:         ctx,
		Work:        ws,
	}
	if e.ilu != nil {
		opts.Precond = e.ilu
	}
	if hook := e.kernelHook; hook != nil {
		// One application streams S plus the input and output vectors.
		op = &timedOperator{op: op, hook: hook, kernel: KernelSchur,
			bytes: e.schur.MemoryBytes() + int64(16*e.ord.N2)}
		if opts.Precond != nil {
			opts.Precond = &timedPrecond{pre: opts.Precond, hook: hook, kernel: KernelPrecond,
				bytes: e.ilu.MemoryBytes() + int64(16*e.ord.N2)}
		}
	}
	return op, opts
}

// runSchurSolve dispatches the configured iterative method. On engines
// carrying a Woodbury correction (hub deltas absorbed over the explicit
// operator) the iteration runs against the stored base S̃ and the low-rank
// correction maps the result to the updated graph's solution; every Schur
// solve in the engine — queries, top-k, bound calibration — funnels through
// here, so all of them see the corrected system consistently.
func (e *Engine) runSchurSolve(op solver.Operator, qt2 []float64, opts solver.GMRESOptions) ([]float64, solver.Stats, error) {
	var (
		t2    []float64
		stats solver.Stats
		err   error
	)
	if e.opts.Solver == SolverBiCGSTAB {
		t2, stats, err = solver.BiCGSTAB(op, qt2, opts)
	} else {
		t2, stats, err = solver.GMRES(op, qt2, opts)
	}
	if err == nil && e.wood != nil {
		e.wood.correct(t2)
	}
	return t2, stats, err
}

// QueryWithCallback runs a query invoking cb with the fully assembled RWR
// vector (original ids) after every GMRES iteration on the Schur system.
// It exists for the Appendix-I accuracy-vs-iterations experiment; regular
// callers should use Query.
func (e *Engine) QueryWithCallback(seed int, cb func(iter int, r []float64)) ([]float64, QueryStats, error) {
	if seed < 0 || seed >= e.n {
		return nil, QueryStats{}, fmt.Errorf("core: seed %d out of range [0,%d)", seed, e.n)
	}
	n1, n2 := e.ord.N1, e.ord.N2
	l := n1 + n2
	c := e.opts.C
	qp := make([]float64, e.n)
	qp[e.ord.Perm[seed]] = 1
	q1 := qp[:n1]
	q2 := qp[n1:l]
	q3 := qp[l:]

	t1 := make([]float64, n1)
	for i, v := range q1 {
		t1[i] = c * v
	}
	e.h11LU.SolvePool(t1, e.pool)
	qt2 := make([]float64, n2)
	e.h21.MulVec(qt2, t1)
	for i := range qt2 {
		qt2[i] = c*q2[i] - qt2[i]
	}

	assemble := func(r2 []float64) []float64 {
		r1 := make([]float64, n1)
		e.h12.MulVec(r1, r2)
		for i := range r1 {
			r1[i] = c*q1[i] - r1[i]
		}
		e.h11LU.SolvePool(r1, e.pool)
		r3 := make([]float64, e.n-l)
		e.h31.MulVec(r3, r1)
		tmp := make([]float64, e.n-l)
		e.h32.MulVec(tmp, r2)
		for i := range r3 {
			r3[i] = c*q3[i] - r3[i] - tmp[i]
		}
		r := make([]float64, e.n)
		for old := 0; old < e.n; old++ {
			nw := e.ord.Perm[old]
			switch {
			case nw < n1:
				r[old] = r1[nw]
			case nw < l:
				r[old] = r2[nw-n1]
			default:
				r[old] = r3[nw-l]
			}
		}
		return r
	}

	start := time.Now()
	var solveCB func(int, []float64)
	if cb != nil {
		solveCB = func(iter int, r2 []float64) { cb(iter, assemble(r2)) }
	}
	r2, stats, err := e.solveSchur(qt2, solveCB)
	if err != nil {
		return nil, QueryStats{Duration: time.Since(start)}, fmt.Errorf("core: solving Schur system: %w", err)
	}
	r := assemble(r2)
	if vec.Norm2(r) == 0 && vec.Norm2(qp) != 0 && e.n > 0 {
		// Defensive: a zero result for a nonzero query indicates a bug.
		return nil, QueryStats{}, fmt.Errorf("core: zero RWR vector for nonzero query")
	}
	return r, QueryStats{Duration: time.Since(start), Iterations: stats.Iterations, Residual: stats.Residual}, nil
}

// TopK returns the k highest-scoring nodes for the seed, excluding the seed
// itself, as (node, score) pairs in descending score order.
func (e *Engine) TopK(seed, k int) ([]Ranked, error) {
	r, _, err := e.Query(seed)
	if err != nil {
		return nil, err
	}
	return RankTopK(r, k, seed), nil
}

// Ranked is a node with its RWR score.
type Ranked struct {
	Node  int
	Score float64
}

// RankTopK returns the k nodes with the highest scores, excluding `exclude`
// (pass a negative value to exclude nothing). Ties break on lower node id.
func RankTopK(scores []float64, k int, exclude int) []Ranked {
	return RankTopKFunc(scores, k, func(node int) bool { return node == exclude })
}

// Outranks reports whether a ranks strictly above b: higher score wins,
// ties break on lower node id. It is the total order every ranking in the
// system uses — Engine.TopK, the bounded top-k search, and the cluster
// tier's merge — so equal-score ties resolve identically on every replica
// and merged rankings are independent of arrival order.
func (a Ranked) Outranks(b Ranked) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Node < b.Node
}

// outranks is the free-function spelling the heap code below uses.
func outranks(a, b Ranked) bool { return a.Outranks(b) }

// RankTopKFunc returns the k highest-scoring nodes among those not skipped,
// in descending order (ties break on lower node id). It maintains a bounded
// min-heap of k candidates — O(n·log k) instead of the O(n·k)
// insertion-sort it replaces — and is shared by Engine.TopK and the HTTP
// handlers' multi-seed rankings. skip may be nil.
func RankTopKFunc(scores []float64, k int, skip func(node int) bool) []Ranked {
	if k <= 0 {
		return nil
	}
	// h is a min-heap on the outranks order: h[0] is the weakest candidate
	// kept so far, the first to be displaced by a better node.
	h := make([]Ranked, 0, k)
	for node, s := range scores {
		if skip != nil && skip(node) {
			continue
		}
		e := Ranked{Node: node, Score: s}
		if len(h) < k {
			h = append(h, e)
			// Sift up.
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !outranks(h[p], h[i]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if !outranks(e, h[0]) {
			continue
		}
		// Replace the weakest and sift down.
		h[0] = e
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(h) && outranks(h[worst], h[l]) {
				worst = l
			}
			if r < len(h) && outranks(h[worst], h[r]) {
				worst = r
			}
			if worst == i {
				break
			}
			h[i], h[worst] = h[worst], h[i]
			i = worst
		}
	}
	sort.Slice(h, func(i, j int) bool { return outranks(h[i], h[j]) })
	return h
}

// timedOperator wraps an operator to report each application through the
// engine's kernel hook.
type timedOperator struct {
	op     solver.Operator
	hook   func(kernel string, seconds float64, bytes int64)
	kernel string
	bytes  int64
}

func (t *timedOperator) MulVec(dst, x []float64) {
	start := time.Now()
	t.op.MulVec(dst, x)
	t.hook(t.kernel, time.Since(start).Seconds(), t.bytes)
}

// timedPrecond is timedOperator for preconditioner applications.
type timedPrecond struct {
	pre    solver.Preconditioner
	hook   func(kernel string, seconds float64, bytes int64)
	kernel string
	bytes  int64
}

func (t *timedPrecond) Apply(dst, src []float64) {
	start := time.Now()
	t.pre.Apply(dst, src)
	t.hook(t.kernel, time.Since(start).Seconds(), t.bytes)
}
