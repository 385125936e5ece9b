// Package solver implements the iterative linear solvers BePI builds on:
// power iteration for the RWR fixed point, and GMRES (Saad & Schultz) with
// optional left preconditioning (Saad's preconditioned variant, Appendix B
// of the paper) for the Schur-complement system and the full-system
// baseline.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bepi/internal/vec"
)

// Operator is anything that can multiply a vector: dst = A·x.
// *sparse.CSR satisfies it.
type Operator interface {
	MulVec(dst, x []float64)
}

// Preconditioner applies M⁻¹: dst = M⁻¹·src. dst and src may alias.
// *lu.ILU satisfies it.
type Preconditioner interface {
	Apply(dst, src []float64)
}

// BatchOperator is an Operator that multiplies several vectors in one
// pass, dst[k] = A·x[k], bit-identically to MulVec on each. *sparse.CSR and
// *sparse.CSR32 satisfy it.
type BatchOperator interface {
	Operator
	MulVecBatch(dst, x [][]float64)
}

// BatchPreconditioner applies M⁻¹ to several vectors in one pass,
// dst[k] = M⁻¹·src[k], bit-identically to Apply on each; dst[k] and src[k]
// may alias. *lu.ILU satisfies it.
type BatchPreconditioner interface {
	Preconditioner
	ApplyBatch(dst, src [][]float64)
}

// mulVecBatch applies a to every x[k]: one batched pass when a supports
// it and there is more than one vector, else one MulVec each.
func mulVecBatch(a Operator, dst, x [][]float64) {
	if ba, ok := a.(BatchOperator); ok && len(x) > 1 {
		ba.MulVecBatch(dst, x)
		return
	}
	for k := range x {
		a.MulVec(dst[k], x[k])
	}
}

// applyBatch is mulVecBatch for preconditioners.
func applyBatch(p Preconditioner, dst, src [][]float64) {
	if bp, ok := p.(BatchPreconditioner); ok && len(src) > 1 {
		bp.ApplyBatch(dst, src)
		return
	}
	for k := range src {
		p.Apply(dst[k], src[k])
	}
}

// identity is the trivial preconditioner.
type identity struct{}

// Apply copies src to dst (M = I).
func (identity) Apply(dst, src []float64) {
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
}

// StopReason records why an iterative solve returned.
type StopReason int

const (
	// StopNone is the zero value: the solve failed before any stopping rule
	// applied (breakdown, iteration limit on methods that do not report it,
	// context cancellation).
	StopNone StopReason = iota
	// StopTolerance means the residual met Tol — the ordinary outcome.
	StopTolerance
	// StopBreakdown means the Krylov recurrence hit an exact-solution
	// ("lucky") breakdown: the subspace closed and the iterate is exact to
	// working precision even though the measured residual may sit above Tol.
	StopBreakdown
	// StopMaxIter means the iteration limit was exhausted; the solve
	// returned ErrNotConverged.
	StopMaxIter
)

// String names the stop reason for stats reporting.
func (r StopReason) String() string {
	switch r {
	case StopTolerance:
		return "tolerance"
	case StopBreakdown:
		return "breakdown"
	case StopMaxIter:
		return "maxiter"
	default:
		return "none"
	}
}

// Stats reports how an iterative solve went.
type Stats struct {
	Iterations int     // matrix-vector products consumed
	Residual   float64 // final relative residual
	Converged  bool
	// StopReason says which rule ended the solve; in particular it
	// distinguishes a lucky breakdown from a genuine tolerance stop.
	StopReason StopReason
}

// ErrNotConverged is wrapped by solvers that hit their iteration limit.
var ErrNotConverged = errors.New("solver: iteration limit reached before convergence")

// GMRESOptions configures a GMRES solve.
type GMRESOptions struct {
	// Tol is the relative-residual stopping tolerance (default 1e-9, the
	// paper's ε).
	Tol float64
	// MaxIter bounds the total number of Arnoldi steps (default 1000).
	MaxIter int
	// Restart, if positive, restarts GMRES every Restart iterations.
	// Zero means full GMRES, as the paper uses.
	Restart int
	// Precond, if non-nil, left-preconditions the system: M⁻¹A x = M⁻¹b.
	Precond Preconditioner
	// Callback, if non-nil, receives the current iterate after every
	// Arnoldi step. Assembling the iterate costs a triangular solve and a
	// basis combination per step; intended for accuracy experiments.
	Callback func(iter int, x []float64)
	// OnIteration, if non-nil, receives the iteration count and current
	// relative residual after every solver iteration. Unlike Callback it
	// does not assemble the iterate — it is a couple of loads per call —
	// so the serving path uses it for live convergence telemetry.
	OnIteration func(iter int, residual float64)
	// Ctx, if non-nil, is checked once per iteration; when it is done the
	// solve aborts with an error wrapping ctx.Err(). This is how per-query
	// deadlines reach the innermost loop of the serving path.
	Ctx context.Context
	// Work, if non-nil, supplies the solve's vector buffers from a
	// reusable arena instead of fresh allocations. The returned solution
	// then points into Work and is only valid until the next solve that
	// uses it.
	Work *Workspace
}

// ctxErr reports the options' context error, or nil without a context.
func (o GMRESOptions) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

func (o GMRESOptions) withDefaults() GMRESOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.Precond == nil {
		o.Precond = identity{}
	}
	return o
}

// GMRES solves A·x = b, returning the solution and solve statistics.
// The residual reported and tested against Tol is the (preconditioned)
// relative residual ‖M⁻¹(A·x − b)‖₂ / ‖M⁻¹b‖₂, matching the stopping rule
// of Algorithm 5 in the paper. It is the one-RHS case of GMRESBatch.
func GMRES(a Operator, b []float64, opts GMRESOptions) ([]float64, Stats, error) {
	xs, stats, errs := GMRESBatch(a, [][]float64{b}, []GMRESOptions{opts})
	return xs[0], stats[0], errs[0]
}

// GMRESBatch solves A·x[k] = b[k] for independent right-hand sides in
// lockstep: every round applies the operator once (MulVecBatch when a
// implements BatchOperator) and the preconditioner once (ApplyBatch when
// it implements BatchPreconditioner) to all RHS still iterating, so the
// kernels' memory traffic and dependency chains are shared across the
// batch. Everything else is per RHS and taken from opts[k]: the Krylov
// basis, Hessenberg and Givens state, Tol, MaxIter, Restart, Ctx,
// Callback, OnIteration, Work and the returned Stats. An RHS that
// converges, breaks down, hits MaxIter or sees its context end leaves the
// batch; the rest continue. Each result is Float64bits-equal to GMRES on
// that RHS alone, because the batched kernels are bit-identical per RHS
// and each recurrence runs the same operations in the same order.
//
// All opts must name the same Precond (nil everywhere means none), and no
// two may share a Workspace. Results are positional: xs[k], stats[k] and
// errs[k] belong to bs[k].
func GMRESBatch(a Operator, bs [][]float64, opts []GMRESOptions) ([][]float64, []Stats, []error) {
	if len(opts) != len(bs) {
		panic(fmt.Sprintf("solver: GMRESBatch got %d options for %d right-hand sides", len(opts), len(bs)))
	}
	runs := make([]*gmresRun, len(bs))
	var pre Preconditioner
	var live []*gmresRun
	for k, b := range bs {
		o := opts[k].withDefaults()
		if k == 0 {
			pre = o.Precond
		} else if o.Precond != pre {
			panic("solver: GMRESBatch right-hand sides must share one preconditioner")
		}
		for _, prev := range opts[:k] {
			if o.Work != nil && prev.Work == o.Work {
				panic("solver: GMRESBatch right-hand sides must not share a Workspace")
			}
		}
		r := &gmresRun{opts: o, b: b, ar: newArena(o.Work, len(b))}
		r.x = r.ar.takeZero()
		runs[k] = r
		if len(b) == 0 {
			r.finish(StopTolerance, nil)
			continue
		}
		r.cycle = o.Restart
		if r.cycle <= 0 || r.cycle > o.MaxIter {
			r.cycle = o.MaxIter
		}
		r.t = r.ar.take()
		r.scratch = r.ar.take()
		live = append(live, r)
	}

	// t = M⁻¹b, batched; its norm scales every residual.
	srcs, dsts := make([][]float64, 0, len(live)), make([][]float64, 0, len(live))
	for _, r := range live {
		srcs, dsts = append(srcs, r.b), append(dsts, r.t)
	}
	applyBatch(pre, dsts, srcs)
	for _, r := range live {
		if r.normT = vec.Norm2(r.t); r.normT == 0 {
			r.finish(StopTolerance, nil)
			continue
		}
		r.top()
	}

	// Each round serves every pending request — dst = M⁻¹·A·in, or for a
	// residual M⁻¹·(b − A·in) — and advances each RHS to its next request.
	for {
		live = live[:0]
		for _, r := range runs {
			if !r.done {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			break
		}
		srcs, dsts = srcs[:0], dsts[:0]
		for _, r := range live {
			srcs, dsts = append(srcs, r.in), append(dsts, r.scratch)
		}
		mulVecBatch(a, dsts, srcs)
		srcs, dsts = srcs[:0], dsts[:0]
		for _, r := range live {
			if r.residual {
				vec.Sub(r.scratch, r.b, r.scratch)
			}
			srcs, dsts = append(srcs, r.scratch), append(dsts, r.out)
		}
		applyBatch(pre, dsts, srcs)
		for _, r := range live {
			if r.residual {
				r.open(r.out, vec.Norm2(r.out))
			} else {
				r.arnoldi(r.out)
			}
		}
	}

	xs := make([][]float64, len(runs))
	stats := make([]Stats, len(runs))
	errs := make([]error, len(runs))
	for k, r := range runs {
		xs[k], stats[k], errs[k] = r.x, r.stats, r.err
	}
	return xs, stats, errs
}

// gmresRun is one right-hand side's restarted, left-preconditioned GMRES
// recurrence, written as a state machine so GMRESBatch can serve the
// kernel applications of many runs together. Between rounds a live run
// has exactly one pending request: out = M⁻¹·A·in for an Arnoldi step, or
// out = M⁻¹·(b − A·in) for the residual that opens a restart cycle.
type gmresRun struct {
	opts  GMRESOptions
	b     []float64
	ar    arena
	x     []float64
	t     []float64 // M⁻¹b until the first cycle consumes it
	normT float64
	cycle int
	stats Stats
	err   error
	done  bool

	in, scratch, out []float64
	residual         bool

	// The open cycle: Arnoldi basis, Hessenberg columns (h[j] has length
	// j+2) reduced by Givens rotations (cs, sn), the rotated right-hand
	// side g, the cycle length m and the current step j.
	v, h      [][]float64
	cs, sn, g []float64
	m, j      int
}

func (r *gmresRun) finish(reason StopReason, err error) {
	r.done = true
	r.stats.StopReason = reason
	r.stats.Converged = err == nil
	r.err = err
}

func (r *gmresRun) request(in []float64, residual bool) {
	r.in, r.residual, r.out = in, residual, r.ar.take()
}

// top starts an outer cycle: it stops on the iteration limit or a done
// context, and otherwise asks for the residual of x. At the zero start
// that residual is t itself — S·0 is +0 and b − (+0) is b bit for bit — so
// the first cycle opens on t without applying either kernel.
func (r *gmresRun) top() {
	if r.stats.Iterations >= r.opts.MaxIter {
		r.finish(StopMaxIter, fmt.Errorf("after %d iterations (residual %.3g): %w",
			r.stats.Iterations, r.stats.Residual, ErrNotConverged))
		return
	}
	if err := r.opts.ctxErr(); err != nil {
		r.finish(StopNone, fmt.Errorf("solver: aborted after %d iterations: %w", r.stats.Iterations, err))
		return
	}
	if t := r.t; t != nil {
		r.t = nil
		r.open(t, r.normT)
		return
	}
	r.request(r.x, true)
}

// open takes the residual z = M⁻¹(b − A·x) of norm beta and either stops
// on it or opens an Arnoldi cycle with v₀ = z/beta.
func (r *gmresRun) open(z []float64, beta float64) {
	r.stats.Residual = beta / r.normT
	if r.stats.Residual <= r.opts.Tol {
		r.finish(StopTolerance, nil)
		return
	}
	m := r.cycle
	if rem := r.opts.MaxIter - r.stats.Iterations; m > rem {
		m = rem
	}
	vec.Scale(1/beta, z)
	r.v = make([][]float64, 1, m+1)
	r.v[0] = z
	r.h = make([][]float64, 0, m)
	r.cs = make([]float64, 0, m)
	r.sn = make([]float64, 0, m)
	r.g = make([]float64, 1, m+1)
	r.g[0] = beta
	r.m, r.j = m, 0
	r.step()
}

// step begins Arnoldi step j: a done context ends the solve with the
// iterate assembled so far; otherwise it asks for M⁻¹·A·v[j].
func (r *gmresRun) step() {
	if err := r.opts.ctxErr(); err != nil {
		r.x = assemble(r.ar, r.x, r.v, r.h, r.g, r.j)
		r.finish(StopNone, fmt.Errorf("solver: aborted after %d iterations: %w", r.stats.Iterations, err))
		return
	}
	r.request(r.v[r.j], false)
}

// arnoldi completes step j with w = M⁻¹·A·v[j]: modified Gram-Schmidt, the
// Givens update of the Hessenberg column, and the stopping rule. A cycle
// that ends folds its minimizer into x and restarts.
func (r *gmresRun) arnoldi(w []float64) {
	j := r.j
	hj := make([]float64, j+2)
	for i := 0; i <= j; i++ {
		hj[i] = vec.Dot(w, r.v[i])
		vec.AXPY(-hj[i], r.v[i], w)
	}
	hj[j+1] = vec.Norm2(w)
	breakdown := hj[j+1] < 1e-300
	if !breakdown {
		vec.Scale(1/hj[j+1], w)
		r.v = append(r.v, w)
	}
	// Apply accumulated rotations to the new column.
	for i := 0; i < j; i++ {
		hj[i], hj[i+1] = r.cs[i]*hj[i]+r.sn[i]*hj[i+1], -r.sn[i]*hj[i]+r.cs[i]*hj[i+1]
	}
	// New rotation to annihilate hj[j+1].
	c, s := givens(hj[j], hj[j+1])
	r.cs, r.sn = append(r.cs, c), append(r.sn, s)
	hj[j] = c*hj[j] + s*hj[j+1]
	hj[j+1] = 0
	r.h = append(r.h, hj)
	r.g = append(r.g, -s*r.g[j])
	r.g[j] = c * r.g[j]
	r.stats.Iterations++
	r.stats.Residual = math.Abs(r.g[j+1]) / r.normT
	if r.opts.OnIteration != nil {
		r.opts.OnIteration(r.stats.Iterations, r.stats.Residual)
	}
	if r.opts.Callback != nil {
		r.opts.Callback(r.stats.Iterations, assemble(arena{n: len(r.b)}, r.x, r.v, r.h, r.g, j+1))
	}
	converged := r.stats.Residual <= r.opts.Tol
	if !converged && !breakdown && j+1 < r.m {
		r.j++
		r.step()
		return
	}
	// Update x with the minimizer over the Krylov space built so far.
	r.x = assemble(r.ar, r.x, r.v, r.h, r.g, j+1)
	switch {
	case converged:
		r.finish(StopTolerance, nil)
	case breakdown:
		r.finish(StopBreakdown, nil)
	default:
		r.top()
	}
}

// assemble returns x + V·y where R·y = g is the triangular least-squares
// system accumulated by the Givens rotations (first `steps` columns). The
// result vector comes from the arena (a fresh allocation without one).
func assemble(ar arena, x []float64, v [][]float64, h [][]float64, g []float64, steps int) []float64 {
	y := make([]float64, steps)
	for i := steps - 1; i >= 0; i-- {
		s := g[i]
		for k := i + 1; k < steps; k++ {
			s -= h[k][i] * y[k]
		}
		// h[i][i] is the rotated diagonal.
		if h[i][i] == 0 {
			y[i] = 0
			continue
		}
		y[i] = s / h[i][i]
	}
	out := ar.take()
	copy(out, x)
	for k := 0; k < steps; k++ {
		vec.AXPY(y[k], v[k], out)
	}
	return out
}

// givens returns the rotation (c, s) with c·a + s·b = r, −s·a + c·b = 0.
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		t := a / b
		s = 1 / math.Sqrt(1+t*t)
		return s * t, s
	}
	t := b / a
	c = 1 / math.Sqrt(1+t*t)
	return c, c * t
}

// PowerOptions configures a power-iteration solve.
type PowerOptions struct {
	Tol      float64 // ‖r⁽ⁱ⁾ − r⁽ⁱ⁻¹⁾‖₂ stopping threshold (default 1e-9)
	MaxIter  int     // default 1000
	Callback func(iter int, r []float64)
}

// PowerIteration computes the RWR vector by iterating
// r ← (1−c)·Ãᵀ·r + c·q until successive iterates differ by at most Tol.
// at must multiply by Ãᵀ (use sparse.CSR.MulVec on the transposed matrix, or
// wrap MulVecT). The returned vector is a fresh slice.
func PowerIteration(at Operator, q []float64, c float64, opts PowerOptions) ([]float64, Stats, error) {
	if opts.Tol <= 0 {
		opts.Tol = 1e-9
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 1000
	}
	n := len(q)
	r := make([]float64, n)
	copy(r, q) // start from q (any start converges; this matches c=1·q)
	next := make([]float64, n)
	var stats Stats
	for iter := 1; iter <= opts.MaxIter; iter++ {
		at.MulVec(next, r)
		for i := range next {
			next[i] = (1-c)*next[i] + c*q[i]
		}
		stats.Iterations = iter
		diff := vec.Dist2(next, r)
		r, next = next, r
		if opts.Callback != nil {
			opts.Callback(iter, r)
		}
		stats.Residual = diff
		if diff <= opts.Tol {
			stats.Converged = true
			return r, stats, nil
		}
	}
	return r, stats, fmt.Errorf("after %d iterations (diff %.3g): %w",
		stats.Iterations, stats.Residual, ErrNotConverged)
}
