package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"bepi/internal/dense"
	"bepi/internal/graph"
	"bepi/internal/reorder"
	"bepi/internal/solver"
	"bepi/internal/sparse"
)

// Incremental rebuilds. ApplyDelta turns an engine plus a small batch of
// edge updates into a new engine for the updated graph without re-running
// SlashBurn or the full factorization pipeline, exploiting the block
// structure the paper's reordering creates:
//
//   - An edge update with a spoke source u rescales column perm[u] of H,
//     which lives entirely inside u's H11 diagonal block plus the H21/H31
//     columns below it. Only that block's LU factors and the Schur columns
//     fed by the block change; everything else is reused byte-for-byte. The
//     changed Schur columns are recomputed with the exact per-column
//     algorithm SchurComplementT runs, so the patched engine is
//     bit-identical to PreprocessWithOrdering on the updated graph.
//   - An edge update with a hub source u rescales column perm[u]−n1 of
//     H12/H22/H32, perturbing exactly one column of S per hub source: a
//     rank-r update S' = S̃ + U·Vᵀ. The engine absorbs it with a
//     Sherman–Morrison–Woodbury correction applied after every Schur solve
//     (stored S̃ and its ILU stay the base). A drift score accumulates and,
//     past Options.MaxHubDrift, ApplyDelta refuses with ErrDriftExceeded so
//     the caller runs a full rebuild.
//   - Anything that breaks the reused ordering's structure — a new node
//     with out-edges, a deadend gaining its first out-edge, a spoke edge
//     crossing H11 blocks — is refused with ErrDeltaFull.
//
// Pure node growth appends the new (necessarily deadend) nodes to the
// ordering's tail and pads H31/H32 with empty rows.

// EdgeDelta is one buffered graph update: insert or delete the edge
// Src → Dst.
type EdgeDelta struct {
	Src, Dst int
	Insert   bool
}

// DeltaClass summarizes how ApplyDelta absorbed (or refused) a delta.
type DeltaClass int

const (
	// DeltaSpoke: every op had a spoke source (or the delta was pure node
	// growth); the rebuild is exact — bit-identical to a full preprocess
	// under the reused ordering.
	DeltaSpoke DeltaClass = iota
	// DeltaHub: at least one op had a hub source; the Schur solve carries a
	// Woodbury correction.
	DeltaHub
	// DeltaFull: the delta cannot reuse the ordering; callers must run a
	// full rebuild.
	DeltaFull
)

// String names the class the way RebuildStatus.Mode reports it.
func (c DeltaClass) String() string {
	switch c {
	case DeltaSpoke:
		return "delta-spoke"
	case DeltaHub:
		return "delta-hub"
	default:
		return "full"
	}
}

// Errors ApplyDelta refuses with; both mean "run a full rebuild instead".
var (
	ErrDeltaFull     = errors.New("core: delta requires a full rebuild")
	ErrDriftExceeded = errors.New("core: accumulated hub drift exceeds MaxHubDrift")
)

// DeltaStats describes one ApplyDelta application.
type DeltaStats struct {
	Class           DeltaClass
	Ops             int
	NewNodes        int
	TouchedBlocks   int // H11 diagonal blocks re-factored
	AffectedColumns int // Schur columns recomputed
	Rank            int // columns carrying a Woodbury correction (hub path)
	Drift           float64
	Duration        time.Duration
}

// colEntry is one stored entry of a matrix column, in ascending-row order
// within a column slice.
type colEntry struct {
	row int
	val float64
}

// woodbury is the rank-r correction a hub delta installs over the stored
// Schur complement: solves run against the base S̃ (stored schur + ILU), then
// y ← y − Z·C⁻¹·y[J] maps the base solution to the updated graph's, where
// Z = S̃⁻¹U and C = I + VᵀZ is the LU-factored capacitance. All state is
// read-only after construction, so concurrent solves share it safely.
type woodbury struct {
	cols   []int              // J: corrected S columns, ascending
	z      [][]float64        // z[b] = S̃⁻¹·Δcol(cols[b]), length n2 each
	capLU  *dense.Matrix      // LU factors of C
	deltas map[int][]colEntry // Δ per corrected column vs base S̃
}

// correct applies the Woodbury update in place on a base-system solution.
func (w *woodbury) correct(y []float64) {
	r := len(w.cols)
	s := make([]float64, r)
	for a, j := range w.cols {
		s[a] = y[j]
	}
	w.capLU.LUSolve(s)
	for b, zb := range w.z {
		sb := s[b]
		if sb == 0 {
			continue
		}
		for i, zv := range zb {
			y[i] -= zv * sb
		}
	}
}

// Corrected reports whether the engine carries a Woodbury correction, i.e.
// its stored Schur complement is the base of a low-rank update rather than
// the updated graph's S. Corrected engines cannot be serialized and do not
// serve the bounded top-k certificate.
func (e *Engine) Corrected() bool { return e.wood != nil }

// Drift returns the accumulated hub-delta drift score
// ‖S_now − S̃_base‖F / ‖S̃_base‖F. Zero on engines whose factors are exact
// for the graph they serve.
func (e *Engine) Drift() float64 {
	if e.driftBase == 0 || len(e.driftCols) == 0 {
		return 0
	}
	var s float64
	for _, d := range e.driftCols {
		s += d * d
	}
	return math.Sqrt(s) / e.driftBase
}

// srcDelta groups a delta's ops by source node.
type srcDelta struct {
	ins, del []int
}

// ApplyDelta builds a new engine for gNew — the updated graph — from the
// receiver plus the edge updates that turned the receiver's graph into
// gNew. The receiver is not modified and keeps serving; the returned engine
// shares every untouched matrix and LU factor with it.
//
// Preconditions: gNew.N() ≥ e.N(); ops lists the actual changes (an insert
// for an edge gNew lacks, or a delete for one it has, is refused); nodes
// beyond e.N() are new and must have no out-edges. ErrDeltaFull and
// ErrDriftExceeded mean the delta cannot be absorbed incrementally — run a
// full Preprocess instead. Any other error likewise leaves the receiver
// untouched.
func (e *Engine) ApplyDelta(gNew *graph.Graph, ops []EdgeDelta) (*Engine, DeltaStats, error) {
	start := time.Now()
	st := DeltaStats{Class: DeltaFull, Ops: len(ops)}
	if gNew.N() < e.n {
		return nil, st, fmt.Errorf("graph shrank %d → %d: %w", e.n, gNew.N(), ErrDeltaFull)
	}
	if err := checkIndexRange(gNew.N()); err != nil {
		return nil, st, err
	}
	growth := gNew.N() - e.n
	st.NewNodes = growth

	// Extend the ordering over the new nodes: appended at the tail of the
	// deadend region in id order, exactly where HubAndSpoke would place
	// out-edge-free nodes that sort after every existing deadend.
	ord := e.ord
	if growth > 0 {
		perm := make([]int, gNew.N())
		inv := make([]int, gNew.N())
		copy(perm, e.ord.Perm)
		copy(inv, e.ord.Inv)
		for i := e.n; i < gNew.N(); i++ {
			perm[i], inv[i] = i, i
		}
		ord = &reorder.Ordering{
			Perm: perm, Inv: inv,
			N1: e.ord.N1, N2: e.ord.N2, N3: e.ord.N3 + growth,
			Blocks: e.ord.Blocks,
		}
	}
	n1, n2 := ord.N1, ord.N2
	l := n1 + n2

	// Group and classify. Sources must be pre-existing non-deadend nodes;
	// spoke sources may not reach spokes outside their own H11 block.
	srcs := make(map[int]*srcDelta)
	hub := false
	for _, op := range ops {
		if op.Src < 0 || op.Src >= gNew.N() || op.Dst < 0 || op.Dst >= gNew.N() {
			return nil, st, fmt.Errorf("op %d→%d out of range: %w", op.Src, op.Dst, ErrDeltaFull)
		}
		if op.Insert != gNew.HasEdge(op.Src, op.Dst) {
			return nil, st, fmt.Errorf("op %d→%d (insert=%v) inconsistent with updated graph: %w",
				op.Src, op.Dst, op.Insert, ErrDeltaFull)
		}
		if op.Src >= e.n {
			return nil, st, fmt.Errorf("new node %d has out-edges: %w", op.Src, ErrDeltaFull)
		}
		pu := ord.Perm[op.Src]
		if pu >= l {
			return nil, st, fmt.Errorf("deadend node %d gains an out-edge: %w", op.Src, ErrDeltaFull)
		}
		if pu >= n1 {
			hub = true
		}
		d := srcs[op.Src]
		if d == nil {
			d = &srcDelta{}
			srcs[op.Src] = d
		}
		if op.Insert {
			d.ins = append(d.ins, op.Dst)
		} else {
			d.del = append(d.del, op.Dst)
		}
	}
	if hub && e.opts.MaxHubDrift < 0 {
		return nil, st, fmt.Errorf("hub-delta path disabled (MaxHubDrift < 0): %w", ErrDeltaFull)
	}

	touched := make(map[int]bool)
	for u := range srcs {
		pu := ord.Perm[u]
		if pu >= n1 {
			continue
		}
		b := e.h11LU.BlockOf(pu)
		lo, hi := e.h11LU.BlockRange(b)
		for _, v := range gNew.OutNeighbors(u) {
			if pv := ord.Perm[v]; pv < n1 && (pv < lo || pv >= hi) {
				return nil, st, fmt.Errorf("edge %d→%d crosses H11 blocks: %w", u, v, ErrDeltaFull)
			}
		}
		touched[b] = true
	}
	st.TouchedBlocks = len(touched)
	if hub {
		st.Class = DeltaHub
	} else {
		st.Class = DeltaSpoke
	}

	// Translate each rescaled H column into entry edits on the stored
	// blocks. A source's whole current out-neighborhood is rewritten (a
	// degree change rescales every remaining entry), deleted targets are
	// removed, and H11 entries are skipped — touched blocks are rebuilt
	// dense from gNew below. H22 is not stored: the affected Schur columns
	// take their H22 part straight from gNew (h22Column).
	c := e.opts.C
	var h21E, h31E, h12E, h32E []sparse.Edit
	hubCols := make(map[int]bool)
	for u, d := range srcs {
		pu := ord.Perm[u]
		deg := gNew.OutDegree(u)
		var w float64
		if deg > 0 {
			w = -(1 - c) / float64(deg)
		}
		route := func(pv int, val float64, del bool) {
			switch {
			case pu < n1: // spoke column
				switch {
				case pv < n1: // inside the rebuilt H11 block
				case pv < l:
					h21E = append(h21E, sparse.Edit{Row: pv - n1, Col: pu, Val: val, Delete: del})
				default:
					h31E = append(h31E, sparse.Edit{Row: pv - l, Col: pu, Val: val, Delete: del})
				}
			default: // hub column j = pu-n1
				j := pu - n1
				switch {
				case pv < n1:
					h12E = append(h12E, sparse.Edit{Row: pv, Col: j, Val: val, Delete: del})
				case pv < l: // H22, rebuilt per column from gNew
				default:
					h32E = append(h32E, sparse.Edit{Row: pv - l, Col: j, Val: val, Delete: del})
				}
			}
		}
		for _, v := range d.del {
			route(ord.Perm[v], 0, true)
		}
		for _, v := range gNew.OutNeighbors(u) {
			route(ord.Perm[v], w, false)
		}
		if pu >= n1 {
			hubCols[pu-n1] = true
		}
	}

	// Copy-on-write patches. Only matrices with edits (or appended rows)
	// are rebuilt; the rest are shared with the serving engine.
	tPatch := time.Now()
	patch := func(m *sparse.CSR32, appendRows int, edits []sparse.Edit) *sparse.CSR32 {
		if appendRows == 0 && len(edits) == 0 {
			return m
		}
		w := m.ToCSR()
		if appendRows > 0 {
			w = w.WithRowsAppended(appendRows)
		}
		return sparse.Compact(w.WithEdits(edits))
	}
	h12New := patch(e.h12, 0, h12E)
	h21New := patch(e.h21, 0, h21E)
	h31New := patch(e.h31, growth, h31E)
	h32New := patch(e.h32, growth, h32E)
	patchDur := time.Since(tPatch)

	// Partial H11 refactorization: rebuild the touched diagonal blocks
	// dense from gNew (same per-cell arithmetic as BuildH + the CSR merge:
	// at most identity + one edge weight per cell, a commutative two-term
	// sum) and LU-factor only those.
	tFactor := time.Now()
	h11LUNew := e.h11LU
	if len(touched) > 0 {
		raw := make(map[int]*dense.Matrix, len(touched))
		for b := range touched {
			lo, hi := e.h11LU.BlockRange(b)
			blk := dense.New(hi-lo, hi-lo)
			for col := lo; col < hi; col++ {
				u := ord.Inv[col]
				deg := gNew.OutDegree(u)
				if deg == 0 {
					continue
				}
				w := -(1 - c) / float64(deg)
				for _, v := range gNew.OutNeighbors(u) {
					if pv := ord.Perm[v]; pv >= lo && pv < hi {
						blk.Set(pv-lo, col-lo, blk.At(pv-lo, col-lo)+w)
					}
				}
			}
			for i := 0; i < hi-lo; i++ {
				blk.Set(i, i, blk.At(i, i)+1)
			}
			raw[b] = blk
		}
		var err error
		h11LUNew, err = e.h11LU.RefactorBlocks(raw)
		if err != nil {
			return nil, st, fmt.Errorf("core: refactoring touched H11 blocks: %w", err)
		}
	}
	factorDur := time.Since(tFactor)

	// Affected Schur columns: every hub source's own column, plus every
	// column whose H12 support reaches a touched H11 block (those columns'
	// back-substitutions — and the H21 columns they gather through — run
	// through refactored blocks).
	affected := make(map[int]bool, len(hubCols))
	for j := range hubCols {
		affected[j] = true
	}
	h12W := h12New.ToCSR()
	for b := range touched {
		lo, hi := e.h11LU.BlockRange(b)
		for i := lo; i < hi; i++ {
			s, en := h12W.RowRange(i)
			for p := s; p < en; p++ {
				affected[h12W.ColIdx()[p]] = true
			}
		}
	}
	cols := make([]int, 0, len(affected))
	for j := range affected {
		cols = append(cols, j)
	}
	sort.Ints(cols)
	st.AffectedColumns = len(cols)

	// Recompute each affected S column with SchurComplementT's per-column
	// algorithm, verbatim, against the patched blocks — same accumulation
	// order, same staging, same merge with the H22 column, explicit zeros
	// kept — so the recomputed columns are bit-identical to a from-scratch
	// Schur build. The H22 column is rebuilt from gNew with the same
	// two-term sums BuildH assembles.
	tSchur := time.Now()
	newCols := make(map[int][]colEntry, len(cols))
	if len(cols) > 0 {
		h12T := h12W.Transpose()
		h21T := h21New.ToCSR().Transpose()
		scratch := make([]float64, maxInt(h11LUNew.MaxBlockSize(), 1))
		acc := make([]float64, n2)
		mark := make([]int, n2)
		for i := range mark {
			mark[i] = -1
		}
		var touchedIdx []int
		for _, j := range cols {
			touchedIdx = touchedIdx[:0]
			s, en := h12T.RowRange(j)
			idx := h12T.ColIdx()[s:en]
			vals := h12T.Values()[s:en]
			h11LUNew.SolveSparse(idx, vals, scratch, func(row int, x float64) {
				rs, re := h21T.RowRange(row)
				tcols := h21T.ColIdx()[rs:re]
				vs := h21T.Values()[rs:re]
				for p, i := range tcols {
					if mark[i] != j {
						mark[i] = j
						acc[i] = 0
						touchedIdx = append(touchedIdx, i)
					}
					acc[i] += vs[p] * x
				}
			})
			sort.Ints(touchedIdx)
			staged := make([]colEntry, 0, len(touchedIdx))
			for _, i := range touchedIdx {
				if acc[i] != 0 {
					staged = append(staged, colEntry{i, -acc[i]})
				}
			}
			newCols[j] = mergeColumns(h22Column(gNew, ord, c, j), staged)
			// Reset marks for the next column (stamp value is the column id,
			// which repeats never, but guard against j reuse across calls).
			for _, i := range touchedIdx {
				mark[i] = -1
			}
		}
	}
	schurDur := time.Since(tSchur)

	// Base/previous values of the affected columns from the stored S.
	schurW := e.schur.ToCSR()
	oldCols := extractColumns(schurW, affected)

	ne := &Engine{
		opts: e.opts, n: gNew.N(), ord: ord,
		h12: h12New, h21: h21New, h31: h31New, h32: h32New,
		schur: e.schur, h11LU: h11LUNew, ilu: e.ilu,
		pool: e.pool, prep: e.prep,
	}

	iluDur := time.Duration(0)
	if hub || e.wood != nil {
		// Hub-touched (or already corrected): stored S̃ and ILU stay the
		// base; affected columns become (or update) Woodbury corrections. Δ
		// is always measured against the base S̃, so repeated deltas never
		// compound approximation error.
		if err := e.installWoodbury(ne, schurW, cols, newCols, oldCols); err != nil {
			return nil, st, err
		}
		st.Rank = len(ne.wood.cols)
	} else {
		// Exact spoke path: splice the recomputed columns into the stored S.
		if len(cols) > 0 {
			var edits []sparse.Edit
			changedRows := make([]bool, n2)
			for _, j := range cols {
				edits = appendColumnEdits(edits, j, oldCols[j], newCols[j], changedRows)
			}
			sNew := schurW.WithEdits(edits)
			if e.ilu != nil {
				// Re-factor ILU(0) from the patched wide S — the same source
				// Preprocess factors from. The partial refactorization reuses
				// every factor row outside the edited rows' dirty closure.
				tILU := time.Now()
				ilu, err := e.ilu.RefactorRows(sNew, changedRows)
				if err != nil {
					return nil, st, fmt.Errorf("core: re-factoring ILU(0) of patched S: %w", err)
				}
				ilu.Compact()
				ne.ilu = ilu
				iluDur = time.Since(tILU)
			}
			ne.schur = sparse.Compact(sNew)
		}
	}

	// Attach the pool to the matrices this delta rebuilt; shared ones are
	// already attached (and must not be re-first-touched while the old
	// engine is serving from them).
	for _, m := range []*sparse.CSR32{ne.h12, ne.h21, ne.h31, ne.h32, ne.schur} {
		switch m {
		case e.h12, e.h21, e.h31, e.h32, e.schur:
		default:
			m.SetPool(ne.pool).FirstTouch()
		}
	}
	if ne.ilu != nil && ne.ilu != e.ilu {
		ne.ilu.SetPool(ne.pool)
	}

	ne.prep.N, ne.prep.M, ne.prep.N3 = gNew.N(), gNew.M(), ord.N3
	ne.prep.Reorder = 0
	ne.prep.BuildH = patchDur
	ne.prep.FactorH11 = factorDur
	ne.prep.Schur = schurDur
	ne.prep.ILU = iluDur
	ne.prep.SchurNNZ = ne.schur.NNZ()
	ne.prep.Total = time.Since(start)
	st.Drift = ne.Drift()
	st.Duration = ne.prep.Total
	return ne, st, nil
}

// installWoodbury builds ne.wood: previous corrections not re-affected by
// this delta keep their Δ and solved Z column; affected columns get a fresh
// Δ against the base S̃ and a fresh solve.
func (e *Engine) installWoodbury(ne *Engine, baseS *sparse.CSR, cols []int, newCols, oldCols map[int][]colEntry) error {
	n2 := e.ord.N2
	deltas := make(map[int][]colEntry)
	oldZ := make(map[int][]float64)
	if e.wood != nil {
		for j, d := range e.wood.deltas {
			deltas[j] = d
		}
		for b, j := range e.wood.cols {
			oldZ[j] = e.wood.z[b]
		}
	}
	for _, j := range cols {
		deltas[j] = diffColumns(newCols[j], oldCols[j])
		delete(oldZ, j) // Δ changed: the cached solve is stale
	}

	// Drift check before any solve work: Δ is against the fixed base, so
	// the column norms compose exactly into ‖S_now − S̃‖F.
	db := e.driftBase
	if db == 0 {
		db = baseS.FrobeniusNorm()
		if db == 0 {
			db = 1
		}
	}
	dc := make(map[int]float64, len(deltas))
	var sum float64
	for j, d := range deltas {
		nrm := colNorm(d)
		dc[j] = nrm
		sum += nrm * nrm
	}
	drift := math.Sqrt(sum) / db
	if drift > e.opts.MaxHubDrift {
		return fmt.Errorf("drift %.3g > %.3g: %w", drift, e.opts.MaxHubDrift, ErrDriftExceeded)
	}

	allCols := make([]int, 0, len(deltas))
	for j := range deltas {
		allCols = append(allCols, j)
	}
	sort.Ints(allCols)

	// Z = S̃⁻¹·U, one preconditioned solve per changed column against the
	// base operator — the correction itself is what makes these solves (and
	// every later query) land on the updated graph's solution.
	zopts := solver.GMRESOptions{Tol: e.opts.Tol, MaxIter: e.opts.MaxIter, Restart: e.opts.GMRESRestart}
	if e.ilu != nil {
		zopts.Precond = e.ilu
	}
	z := make([][]float64, len(allCols))
	rhs := make([]float64, n2)
	for b, j := range allCols {
		if zj, ok := oldZ[j]; ok {
			z[b] = zj
			continue
		}
		for i := range rhs {
			rhs[i] = 0
		}
		for _, ce := range deltas[j] {
			rhs[ce.row] = ce.val
		}
		zj, _, err := solver.GMRES(e.schur, rhs, zopts)
		if err != nil {
			return fmt.Errorf("core: Woodbury solve for S column %d: %w", j, err)
		}
		z[b] = zj
	}

	// Capacitance C = I + VᵀZ, C[a][b] = δ_ab + z_b[j_a]; r×r and dense.
	r := len(allCols)
	capM := dense.New(r, r)
	for a := 0; a < r; a++ {
		for b := 0; b < r; b++ {
			v := z[b][allCols[a]]
			if a == b {
				v++
			}
			capM.Set(a, b, v)
		}
	}
	if err := capM.LU(); err != nil {
		return fmt.Errorf("core: Woodbury capacitance singular: %w", err)
	}
	ne.wood = &woodbury{cols: allCols, z: z, capLU: capM, deltas: deltas}
	ne.driftCols, ne.driftBase = dc, db
	return nil
}

// h22Column builds column j of the reordered H22 straight from the graph:
// the identity diagonal plus −(1−c)/outdeg(u) for every hub out-neighbor of
// the hub node u owning the column, duplicates (the self-loop) merged by
// the same two-term sum the CSR build produces.
func h22Column(g *graph.Graph, ord *reorder.Ordering, c float64, j int) []colEntry {
	n1 := ord.N1
	l := n1 + ord.N2
	u := ord.Inv[n1+j]
	out := []colEntry{{j, 1}}
	deg := g.OutDegree(u)
	if deg > 0 {
		w := -(1 - c) / float64(deg)
		for _, v := range g.OutNeighbors(u) {
			if pv := ord.Perm[v]; pv >= n1 && pv < l {
				out = append(out, colEntry{pv - n1, w})
			}
		}
	}
	// Insertion sort: hub columns are short, and the reflection-based
	// sort.Slice showed up in per-flush profiles at 347 columns a delta.
	// Stable, so the duplicate diagonal keeps its 1 + w summation order
	// (commutative anyway — the merged value is bit-identical either way).
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && out[b].row < out[b-1].row; b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	merged := out[:0]
	for _, ce := range out {
		if len(merged) > 0 && merged[len(merged)-1].row == ce.row {
			merged[len(merged)-1].val += ce.val
		} else {
			merged = append(merged, ce)
		}
	}
	return merged
}

// mergeColumns merges an H22 column with the staged −H21·H11⁻¹·H12 column
// entries with exactly sparse.CSR.Add's two-pointer semantics (same sum
// expression, explicit zeros kept).
func mergeColumns(h22col, staged []colEntry) []colEntry {
	out := make([]colEntry, 0, len(h22col)+len(staged))
	pa, pb := 0, 0
	for pa < len(h22col) || pb < len(staged) {
		switch {
		case pb >= len(staged) || (pa < len(h22col) && h22col[pa].row < staged[pb].row):
			out = append(out, h22col[pa])
			pa++
		case pa >= len(h22col) || staged[pb].row < h22col[pa].row:
			out = append(out, staged[pb])
			pb++
		default:
			out = append(out, colEntry{h22col[pa].row, h22col[pa].val + staged[pb].val})
			pa++
			pb++
		}
	}
	return out
}

// diffColumns returns newCol − oldCol as a sparse column (entries whose
// difference is exactly zero are dropped — they contribute nothing to the
// correction or the drift).
func diffColumns(newCol, oldCol []colEntry) []colEntry {
	var out []colEntry
	pa, pb := 0, 0
	for pa < len(newCol) || pb < len(oldCol) {
		switch {
		case pb >= len(oldCol) || (pa < len(newCol) && newCol[pa].row < oldCol[pb].row):
			if newCol[pa].val != 0 {
				out = append(out, newCol[pa])
			}
			pa++
		case pa >= len(newCol) || oldCol[pb].row < newCol[pa].row:
			if oldCol[pb].val != 0 {
				out = append(out, colEntry{oldCol[pb].row, -oldCol[pb].val})
			}
			pb++
		default:
			if d := newCol[pa].val - oldCol[pb].val; d != 0 {
				out = append(out, colEntry{newCol[pa].row, d})
			}
			pa++
			pb++
		}
	}
	return out
}

// colNorm returns the ℓ2 norm of a sparse column.
func colNorm(col []colEntry) float64 {
	var s float64
	for _, ce := range col {
		s += ce.val * ce.val
	}
	return math.Sqrt(s)
}

// extractColumns collects the stored entries of the wanted columns in one
// row-major sweep; each column comes out in ascending-row order. A dense
// slot mask stands in for the map during the sweep — a hash lookup per
// stored entry dominated the delta-rebuild profile.
func extractColumns(m *sparse.CSR, want map[int]bool) map[int][]colEntry {
	out := make(map[int][]colEntry, len(want))
	if len(want) == 0 {
		return out
	}
	slot := make([]int, m.Cols())
	order := make([]int, 0, len(want))
	for j := range want {
		order = append(order, j)
		slot[j] = len(order) // 1-based; 0 means unwanted
	}
	// Count pass, then fill into one backing array: wanted columns are a
	// minority but can be long, and growing each slice by append re-copies
	// enough to show in per-flush profiles.
	counts := make([]int, len(order)+1)
	cols := m.ColIdx()
	vals := m.Values()
	nnz := m.NNZ()
	for p := 0; p < nnz; p++ {
		if sl := slot[cols[p]]; sl != 0 {
			counts[sl]++
		}
	}
	for k := 1; k <= len(order); k++ {
		counts[k] += counts[k-1]
	}
	buf := make([]colEntry, counts[len(order)])
	starts := make([]int, len(order))
	copy(starts, counts[:len(order)])
	fill := make([]int, len(order))
	copy(fill, starts)
	for i := 0; i < m.Rows(); i++ {
		s, en := m.RowRange(i)
		for p := s; p < en; p++ {
			if sl := slot[cols[p]]; sl != 0 {
				buf[fill[sl-1]] = colEntry{i, vals[p]}
				fill[sl-1]++
			}
		}
	}
	for k, j := range order {
		out[j] = buf[starts[k]:fill[k]:fill[k]]
	}
	return out
}

// appendColumnEdits emits the WithEdits batch replacing column j's old
// entries with the new ones, skipping entries that are already bitwise
// equal — an affected column usually overlaps its predecessor almost
// everywhere, and both the splice cost and the partial ILU(0)
// refactorization's dirty set scale with the edits actually emitted. Every
// edited row is flagged in changed (length n2), which feeds RefactorRows.
func appendColumnEdits(edits []sparse.Edit, j int, oldCol, newCol []colEntry, changed []bool) []sparse.Edit {
	pa, pb := 0, 0
	for pa < len(oldCol) || pb < len(newCol) {
		switch {
		case pb >= len(newCol) || (pa < len(oldCol) && oldCol[pa].row < newCol[pb].row):
			edits = append(edits, sparse.Edit{Row: oldCol[pa].row, Col: j, Delete: true})
			changed[oldCol[pa].row] = true
			pa++
		case pa >= len(oldCol) || newCol[pb].row < oldCol[pa].row:
			edits = append(edits, sparse.Edit{Row: newCol[pb].row, Col: j, Val: newCol[pb].val})
			changed[newCol[pb].row] = true
			pb++
		default:
			if math.Float64bits(oldCol[pa].val) != math.Float64bits(newCol[pb].val) {
				edits = append(edits, sparse.Edit{Row: newCol[pb].row, Col: j, Val: newCol[pb].val})
				changed[newCol[pb].row] = true
			}
			pa++
			pb++
		}
	}
	return edits
}
