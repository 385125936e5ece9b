package core

import (
	"context"
	"fmt"
	"time"

	"bepi/internal/solver"
)

// Workspace holds the block-elimination temporaries and the iterative
// solver's Krylov workspace for one engine, sized lazily to the largest
// batch it has seen. A workspace is owned by one QueryVectorBatch call at a
// time (it is not safe for concurrent use) but is reused across calls, so a
// serving worker that runs query after query allocates nothing on the hot
// path except the result vectors it hands back.
type Workspace struct {
	e *Engine
	// Per-batch-slot buffers in the reordered space: the permuted query,
	// the H11 back-substitution temporaries, and the three result blocks.
	qps, t1s, qt2s, r1s, r2s, r3s, tmps [][]float64
	// sel holds gathered views of the buffers above for the active batch
	// slots, reused across phases.
	sel [7][][]float64
	slv solver.Workspace
	// tkScores (length n, permuted order) is the bounded top-k search's
	// scratch: the mid-solve score snapshot the gap checks rank. One buffer
	// serves a whole batch — the per-item Schur solves run sequentially.
	tkScores []float64
}

// NewWorkspace returns an empty workspace for the engine. Buffers are
// allocated on first use and grow to the largest batch size submitted.
func (e *Engine) NewWorkspace() *Workspace { return &Workspace{e: e} }

// grow ensures the workspace has buffers for a batch of k queries.
func (w *Workspace) grow(k int) {
	n1, n2 := w.e.ord.N1, w.e.ord.N2
	n3 := w.e.n - n1 - n2
	for len(w.qps) < k {
		w.qps = append(w.qps, make([]float64, w.e.n))
		w.t1s = append(w.t1s, make([]float64, n1))
		w.qt2s = append(w.qt2s, make([]float64, n2))
		w.r1s = append(w.r1s, make([]float64, n1))
		w.r2s = append(w.r2s, make([]float64, n2))
		w.r3s = append(w.r3s, make([]float64, n3))
		w.tmps = append(w.tmps, make([]float64, n3))
	}
}

// growTopK sizes the bounded top-k scratch buffer.
func (w *Workspace) growTopK() {
	if len(w.tkScores) < w.e.n {
		w.tkScores = make([]float64, w.e.n)
	}
}

// gather fills w.sel[slot] with buf[k] for every active k and returns it.
func (w *Workspace) gather(slot int, buf [][]float64, active []int) [][]float64 {
	s := w.sel[slot][:0]
	for _, k := range active {
		s = append(s, buf[k])
	}
	w.sel[slot] = s
	return s
}

// QueryVectorWS is QueryVector with an explicit context and workspace: the
// context cancels the iterative Schur solve (per-query deadlines on the
// serving path), and the workspace, when non-nil, supplies every temporary
// so the only allocation left is the returned score vector.
func (e *Engine) QueryVectorWS(ctx context.Context, q []float64, ws *Workspace) ([]float64, QueryStats, error) {
	res, stats, errs := e.QueryVectorBatch([]context.Context{ctx}, [][]float64{q}, ws)
	return res[0], stats[0], errs[0]
}

// QueryVectorBatch answers a batch of personalized queries in one
// block-elimination pass (Algorithm 4 applied to a multi-column right-hand
// side). The H11 back-substitutions and the SpMVs over H12/H21/H31/H32 are
// shared-structure across the batch — each matrix is traversed once per
// phase for all K queries — while the iterative Schur solves run per query
// so that each query's context (deadline, cancellation) is honored
// individually. Results, stats, and errors are positional: res[k] is nil
// iff errs[k] is non-nil. A failed or canceled query never poisons its
// batchmates. Duration in each query's stats is the wall time of the whole
// batch, i.e. the latency that query experienced at the engine.
//
// ctxs may be nil (no cancellation) and ws may be nil (allocate
// per call); a batch of one with a nil context computes bit-identical
// results to QueryVector.
func (e *Engine) QueryVectorBatch(ctxs []context.Context, qs [][]float64, ws *Workspace) ([][]float64, []QueryStats, []error) {
	K := len(qs)
	res := make([][]float64, K)
	stats := make([]QueryStats, K)
	errs := make([]error, K)
	if K == 0 {
		return res, stats, errs
	}
	start := time.Now()
	if ws == nil || ws.e != e {
		ws = e.NewWorkspace()
	}
	ws.grow(K)

	active := e.admitBatch(ctxs, qs, errs)
	permuteDur := e.permutePhase(ws, qs, active)
	forwardDur := e.forwardPhase(ws, active)

	// Solve S·r2 = q̃2 per query (line 4) — iterative, so per-query
	// contexts apply here; the Krylov workspace is shared sequentially.
	solved := make([]int, 0, len(active))
	for _, k := range active {
		tSolve := time.Now()
		r2, st, err := e.solveSchurCtx(batchCtx(ctxs, k), ws.qt2s[k], &ws.slv, nil)
		stats[k].Iterations, stats[k].Residual = st.Iterations, st.Residual
		stats[k].Stages.Solve = time.Since(tSolve)
		if err != nil {
			errs[k] = fmt.Errorf("core: solving Schur system: %w", err)
			continue
		}
		// r2 points into the shared solver workspace; the next solve
		// clobbers it, so park it in this slot's own buffer.
		copy(ws.r2s[k], r2)
		solved = append(solved, k)
	}
	active = solved

	tPhase := time.Now()
	e.backPhase(ws, active, res)
	backDur := time.Since(tPhase)
	elapsed := time.Since(start)
	for k := range stats {
		stats[k].Duration = elapsed
		stats[k].Stages.Permute = permuteDur
		stats[k].Stages.Forward = forwardDur
		stats[k].Stages.Back = backDur
	}
	return res, stats, errs
}

// batchCtx resolves the k-th per-query context of a batch (nil-tolerant).
func batchCtx(ctxs []context.Context, k int) context.Context {
	if ctxs == nil || ctxs[k] == nil {
		return context.Background()
	}
	return ctxs[k]
}

// admitBatch validates query lengths and contexts, recording rejections in
// errs and returning the slot indices that proceed.
func (e *Engine) admitBatch(ctxs []context.Context, qs [][]float64, errs []error) []int {
	active := make([]int, 0, len(qs))
	for k, q := range qs {
		if len(q) != e.n {
			errs[k] = fmt.Errorf("core: query vector length %d want %d", len(q), e.n)
			continue
		}
		if err := batchCtx(ctxs, k).Err(); err != nil {
			errs[k] = err
			continue
		}
		active = append(active, k)
	}
	return active
}

// permutePhase scatters each active query into the reordered space and
// forms t1 = c·q1, the setup shared by every block-elimination pass.
func (e *Engine) permutePhase(ws *Workspace, qs [][]float64, active []int) time.Duration {
	tPhase := time.Now()
	n1 := e.ord.N1
	c := e.opts.C
	for _, k := range active {
		qp := ws.qps[k]
		for i := range qp {
			qp[i] = 0
		}
		for old, v := range qs[k] {
			if v != 0 {
				qp[e.ord.Perm[old]] = v
			}
		}
		t1 := ws.t1s[k]
		for i, v := range qp[:n1] {
			t1[i] = c * v
		}
	}
	return time.Since(tPhase)
}

// forwardPhase computes q̃2 = c·q2 − H21·(H11⁻¹·(c·q1)) for the active
// slots (Algorithm 4, line 3), batched: one block-diagonal substitution
// sweep and one H21 traversal serve every query in the batch; blocks (and
// SpMV rows) run in parallel over the engine pool.
func (e *Engine) forwardPhase(ws *Workspace, active []int) time.Duration {
	tPhase := time.Now()
	n1, n2 := e.ord.N1, e.ord.N2
	l := n1 + n2
	c := e.opts.C
	e.h11LU.SolveBatchPool(ws.gather(0, ws.t1s, active), e.pool)
	e.h21.MulVecBatch(ws.gather(1, ws.qt2s, active), ws.gather(0, ws.t1s, active))
	for _, k := range active {
		qp, qt2 := ws.qps[k], ws.qt2s[k]
		q2 := qp[n1:l]
		for i := range qt2 {
			qt2[i] = c*q2[i] - qt2[i]
		}
	}
	return time.Since(tPhase)
}

// backPhase reconstructs r1 and r3 from each active slot's solved r2
// (already parked in ws.r2s) and un-permutes the concatenated result into
// a fresh original-id vector per slot (Algorithm 4, lines 5-7). The result
// vectors are the one allocation that must escape.
func (e *Engine) backPhase(ws *Workspace, active []int, res [][]float64) {
	n1, n2 := e.ord.N1, e.ord.N2
	l := n1 + n2
	c := e.opts.C

	// r1 = H11⁻¹·(c·q1 − H12·r2)   (line 5), batched.
	e.h12.MulVecBatch(ws.gather(2, ws.r1s, active), ws.gather(3, ws.r2s, active))
	for _, k := range active {
		qp, r1 := ws.qps[k], ws.r1s[k]
		for i := range r1 {
			r1[i] = c*qp[i] - r1[i]
		}
	}
	e.h11LU.SolveBatchPool(ws.gather(2, ws.r1s, active), e.pool)

	// r3 = c·q3 − H31·r1 − H32·r2   (line 6), batched.
	e.h31.MulVecBatch(ws.gather(4, ws.r3s, active), ws.gather(2, ws.r1s, active))
	e.h32.MulVecBatch(ws.gather(5, ws.tmps, active), ws.gather(3, ws.r2s, active))
	for _, k := range active {
		qp, r3, tmp := ws.qps[k], ws.r3s[k], ws.tmps[k]
		q3 := qp[l:]
		for i := range r3 {
			r3[i] = c*q3[i] - r3[i] - tmp[i]
		}
	}

	// Concatenate and un-permute back to original ids (line 7).
	for _, k := range active {
		res[k] = e.unpermuteSlot(ws, k)
	}
}

// unpermuteSlot concatenates a slot's r1/r2/r3 blocks into a fresh
// original-id vector — the final step of backPhase on its own, for callers
// whose r1/r3 are already current (the bounded top-k search reuses the
// reconstruction its certifying gap check just performed).
func (e *Engine) unpermuteSlot(ws *Workspace, k int) []float64 {
	n1 := e.ord.N1
	l := n1 + e.ord.N2
	r := make([]float64, e.n)
	r1, r2, r3 := ws.r1s[k], ws.r2s[k], ws.r3s[k]
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
