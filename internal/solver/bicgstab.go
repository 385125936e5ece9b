package solver

import (
	"fmt"

	"bepi/internal/vec"
)

// BiCGSTAB solves A·x = b with the stabilized bi-conjugate gradient method
// (van der Vorst), optionally left-preconditioned. It is the short-recurrence
// alternative to GMRES for the Schur-complement system: two matrix-vector
// products per iteration but O(1) memory in the iteration count, where full
// GMRES stores the whole Krylov basis. Exposed as an engine option and used
// by the solver-ablation experiment.
func BiCGSTAB(a Operator, b []float64, opts GMRESOptions) ([]float64, Stats, error) {
	opts = opts.withDefaults()
	n := len(b)
	ar := newArena(opts.Work, n)
	x := ar.takeZero()
	if n == 0 {
		return x, Stats{Converged: true, StopReason: StopTolerance}, nil
	}
	var stats Stats

	t := ar.take()
	opts.Precond.Apply(t, b)
	normB := vec.Norm2(t)
	if normB == 0 {
		return x, Stats{Converged: true, StopReason: StopTolerance}, nil
	}

	// r = M⁻¹(b − A·x) = M⁻¹b for x = 0.
	r := ar.take()
	copy(r, t)
	rhat := ar.take() // shadow residual, fixed
	copy(rhat, r)
	var rho, alpha, omega float64 = 1, 1, 1
	v := ar.takeZero()
	p := ar.takeZero()
	s := ar.take()
	tv := ar.take()
	scratch := ar.take()

	applyA := func(dst, src []float64) {
		a.MulVec(scratch, src)
		opts.Precond.Apply(dst, scratch)
	}

	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := opts.ctxErr(); err != nil {
			return x, stats, fmt.Errorf("solver: aborted after %d iterations: %w", stats.Iterations, err)
		}
		rhoNew := vec.Dot(rhat, r)
		if rhoNew == 0 {
			return x, stats, fmt.Errorf("solver: BiCGSTAB breakdown (rho=0) at iteration %d: %w",
				iter, ErrNotConverged)
		}
		if iter == 1 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		applyA(v, p)
		den := vec.Dot(rhat, v)
		if den == 0 {
			return x, stats, fmt.Errorf("solver: BiCGSTAB breakdown (rᵀv=0) at iteration %d: %w",
				iter, ErrNotConverged)
		}
		alpha = rho / den
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		stats.Iterations = iter
		if res := vec.Norm2(s) / normB; res <= opts.Tol {
			vec.AXPY(alpha, p, x)
			stats.Residual = res
			stats.Converged = true
			stats.StopReason = StopTolerance
			if opts.OnIteration != nil {
				opts.OnIteration(iter, res)
			}
			if opts.Callback != nil {
				opts.Callback(iter, x)
			}
			return x, stats, nil
		}
		applyA(tv, s)
		tt := vec.Dot(tv, tv)
		if tt == 0 {
			return x, stats, fmt.Errorf("solver: BiCGSTAB breakdown (t=0) at iteration %d: %w",
				iter, ErrNotConverged)
		}
		omega = vec.Dot(tv, s) / tt
		for i := range x {
			x[i] += alpha*p[i] + omega*s[i]
		}
		for i := range r {
			r[i] = s[i] - omega*tv[i]
		}
		stats.Residual = vec.Norm2(r) / normB
		if opts.OnIteration != nil {
			opts.OnIteration(iter, stats.Residual)
		}
		if opts.Callback != nil {
			opts.Callback(iter, x)
		}
		if stats.Residual <= opts.Tol {
			stats.Converged = true
			stats.StopReason = StopTolerance
			return x, stats, nil
		}
		if omega == 0 {
			return x, stats, fmt.Errorf("solver: BiCGSTAB breakdown (omega=0) at iteration %d: %w",
				iter, ErrNotConverged)
		}
	}
	stats.StopReason = StopMaxIter
	return x, stats, fmt.Errorf("after %d iterations (residual %.3g): %w",
		stats.Iterations, stats.Residual, ErrNotConverged)
}
