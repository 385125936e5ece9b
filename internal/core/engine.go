// Package core implements BePI itself: the preprocessing phase
// (Algorithms 1 and 3 of the paper — deadend + SlashBurn reordering, block
// partitioning of H, per-block LU of H11, Schur complement construction,
// and optional ILU(0) preconditioner), and the query phase (Algorithms 2
// and 4 — block elimination with an iterative Schur solve).
//
// The three published variants are exposed through Options.Variant:
//
//	VariantB    — block elimination + plain GMRES on S (BePI-B, §3.3)
//	VariantS    — + hub ratio chosen to sparsify S (BePI-S, §3.4)
//	VariantFull — + ILU(0)-preconditioned GMRES (BePI, §3.5)
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bepi/internal/graph"
	"bepi/internal/lu"
	"bepi/internal/par"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// Variant selects which of the paper's three algorithm versions to run.
type Variant int

const (
	// VariantFull is BePI, the complete algorithm: sparsified Schur
	// complement plus ILU(0) preconditioning. It is the zero value, so an
	// unconfigured Options runs full BePI.
	VariantFull Variant = iota
	// VariantB is BePI-B: block elimination with an unpreconditioned
	// iterative Schur solve and a small fixed hub ratio (paper uses 0.001).
	VariantB
	// VariantS is BePI-S: like BePI-B but with a hub ratio that sparsifies
	// the Schur complement (paper uses 0.2–0.3).
	VariantS
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantB:
		return "BePI-B"
	case VariantS:
		return "BePI-S"
	case VariantFull:
		return "BePI"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// DefaultC is the restart probability used throughout the paper's
// experiments.
const DefaultC = 0.05

// DefaultTol is the paper's error tolerance ε.
const DefaultTol = 1e-9

// Options configures preprocessing and querying.
type Options struct {
	// C is the restart probability (0 < C < 1); default 0.05.
	C float64
	// Tol is the iterative-solver tolerance ε; default 1e-9.
	Tol float64
	// Variant selects BePI-B, BePI-S or full BePI; default VariantFull.
	Variant Variant
	// HubRatio overrides the SlashBurn hub selection ratio k. Zero selects
	// the paper's defaults: 0.001 for BePI-B, 0.2 for BePI-S/BePI.
	HubRatio float64
	// MaxIter bounds GMRES iterations per query; default 1000.
	MaxIter int
	// GMRESRestart, if positive, restarts GMRES with that cycle length.
	// Zero (default) runs full GMRES as the paper does.
	GMRESRestart int
	// Solver selects the iterative method for the Schur system. The paper
	// uses GMRES (the default); BiCGSTAB is a short-recurrence alternative
	// provided for the solver-ablation experiment.
	Solver SchurSolver
	// MemoryBudget, if positive, aborts preprocessing with
	// ErrMemoryBudget when the preprocessed data would exceed this many
	// bytes. Models the paper's out-of-memory outcomes.
	MemoryBudget int64
	// Deadline, if positive, aborts preprocessing with ErrDeadline once
	// exceeded. Models the paper's 24-hour preprocessing timeout.
	Deadline time.Duration
	// Parallelism caps how many cores preprocessing and the query kernels
	// use. Zero (default) shares the process-wide GOMAXPROCS-sized pool
	// with every other engine; 1 forces serial execution; n > 1 gives the
	// engine its own n-worker pool. Parallel and serial execution produce
	// bit-identical results.
	Parallelism int
	// MaxHubDrift bounds how much hub-touching deltas may perturb the Schur
	// complement before ApplyDelta refuses and demands a full rebuild: the
	// drift score is ‖S_now − S̃_base‖F / ‖S̃_base‖F accumulated column-wise
	// across hub deltas (see Engine.Drift). Zero selects the default 0.1; a
	// negative value disables the hub-delta path entirely, so any
	// hub-touching delta falls back to a full rebuild.
	MaxHubDrift float64
}

// DefaultMaxHubDrift is the hub-drift threshold used when
// Options.MaxHubDrift is zero.
const DefaultMaxHubDrift = 0.1

func (o Options) withDefaults() Options {
	if o.C <= 0 || o.C >= 1 {
		o.C = DefaultC
	}
	if o.Tol <= 0 {
		o.Tol = DefaultTol
	}
	if o.HubRatio == 0 {
		if o.Variant == VariantB {
			o.HubRatio = 0.001
		} else {
			o.HubRatio = 0.2
		}
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.MaxHubDrift == 0 {
		o.MaxHubDrift = DefaultMaxHubDrift
	}
	return o
}

// SchurSolver names an iterative solver for the Schur-complement system.
type SchurSolver int

const (
	// SolverGMRES is the paper's choice (default).
	SolverGMRES SchurSolver = iota
	// SolverBiCGSTAB trades the stored Krylov basis for two mat-vecs per
	// iteration.
	SolverBiCGSTAB
)

// String returns the solver's display name.
func (s SchurSolver) String() string {
	switch s {
	case SolverBiCGSTAB:
		return "BiCGSTAB"
	default:
		return "GMRES"
	}
}

// Errors reported by preprocessing budget guards.
var (
	ErrMemoryBudget = errors.New("core: preprocessed data exceeds memory budget")
	ErrDeadline     = errors.New("core: preprocessing deadline exceeded")
)

// PrepStats records where preprocessing time went and the sizes that
// determine query cost.
type PrepStats struct {
	Total      time.Duration
	Reorder    time.Duration
	BuildH     time.Duration
	FactorH11  time.Duration
	Schur      time.Duration
	ILU        time.Duration
	N, M       int
	N1, N2, N3 int
	Blocks     int
	SchurNNZ   int
	HubRatio   float64
	// Workers is the effective parallel worker count the engine's pool
	// admits (1 = serial).
	Workers int
}

// QueryStats records the cost of one RWR query.
type QueryStats struct {
	Duration   time.Duration
	Iterations int
	Residual   float64
	// Stages breaks Duration down by pipeline phase. In a batched solve the
	// shared phases (everything except Solve) report the whole batch's
	// phase wall time — the latency that query actually experienced there.
	Stages StageTimings
}

// StageTimings is the engine-side phase breakdown of one query: where the
// time between entering QueryVectorBatch and returning the score vector
// went. Solve is per query (the iterative Schur solve runs per item); the
// other phases are shared across the batch.
type StageTimings struct {
	// Permute covers scattering q into the reordered space and forming
	// t1 = c·q1.
	Permute time.Duration
	// Forward covers the batched H11 back-substitution, the H21 SpMV, and
	// assembling q̃2 (Algorithm 4, line 3).
	Forward time.Duration
	// Solve is this query's iterative solve of S·r2 = q̃2 (line 4).
	Solve time.Duration
	// Back covers r1/r3 reconstruction and the un-permute into original
	// node ids (lines 5-7).
	Back time.Duration
}

// Engine is a preprocessed BePI index able to answer RWR queries for any
// seed node. It is safe for concurrent queries (all query state is local).
//
// It holds exactly the paper's index (Figure 1(b)): the H11 block LU
// factors, the partition blocks H12/H21/H31/H32, the Schur complement S and,
// for full BePI, S's ILU(0) factors — every matrix in the compact CSR32
// layout, whose kernels are bit-identical to the wide CSR ones the index is
// built, patched and serialized in.
type Engine struct {
	opts Options
	n    int
	ord  *reorder.Ordering

	h12, h21, h31, h32 *sparse.CSR32
	schur              *sparse.CSR32
	h11LU              *lu.BlockLU
	ilu                *lu.ILU // nil unless VariantFull

	pool *par.Pool // compute pool for kernels; nil means serial
	prep PrepStats

	// iterHook, when set, receives (iteration, residual) from inside every
	// iterative Schur solve — live convergence telemetry for the serving
	// layer. It must be safe for concurrent calls (solves run on many
	// workers) and cheap (it fires once per solver iteration).
	iterHook func(iter int, residual float64)

	// kernelHook, when set, receives one sample per hot-path kernel
	// application during iterative solves: the kernel name (KernelSchur,
	// KernelPrecond), its wall time, and the approximate bytes it moved.
	// Same contract as iterHook: concurrent-safe and cheap.
	kernelHook func(kernel string, seconds float64, bytes int64)

	// bnd caches the seed-independent factor of the Theorem-4 accuracy
	// bound, √((α‖H31‖+‖H32‖)² + α² + 1)/σmin(S): the norm and
	// singular-value estimates behind it cost dozens of GMRES solves on S,
	// so they run once per engine — lazily, under the Once — and every
	// per-seed bound then just scales the factor by that seed's ‖q̃2‖.
	// Parallelism changes keep it valid (parallel kernels are
	// bit-identical), and an engine swap replaces the whole Engine.
	bndOnce   sync.Once
	bndFactor float64
	bndErr    error

	// wood, when non-nil, is the Woodbury low-rank correction a hub-touching
	// delta installed over the explicit Schur operator: the stored schur (and
	// its ILU factors) remain the base S̃ the correction was built against,
	// and runSchurSolve applies the rank-r update after every iterative
	// solve. Engines with a correction cannot be serialized and do not serve
	// the bounded top-k certificate. Built by ApplyDelta (delta.go).
	wood *woodbury
	// driftCols tracks, per Schur column, the perturbation ‖ΔS[:,j]‖₂ the
	// Woodbury correction carries against the stored base S̃ (and its ILU
	// factors); driftBase is ‖S̃‖F. Engine.Drift derives the relative score from them.
	driftCols map[int]float64
	driftBase float64

	// tk caches the calibrated ℓ∞ error-to-residual ratio the bounded
	// top-k certificate scales per-iteration residuals by. Unlike the
	// Theorem-4 ℓ2 envelope above (valid but orders too conservative for
	// per-node gap tests at scale), it is measured: reference solves record
	// the worst observed max-node score error per unit of true Schur
	// residual, and topkBoundSafety inflates it at check time. Computed
	// once per engine, lazily, under the Once.
	tkOnce   sync.Once
	tkFactor float64
	tkErr    error
}

// SetIterHook installs a per-iteration solver observer (nil removes it).
// Set it before serving queries; it must not race with in-flight solves.
func (e *Engine) SetIterHook(f func(iter int, residual float64)) { e.iterHook = f }

// SetKernelHook installs a per-kernel-application observer (nil removes
// it): each Schur-operator and preconditioner application during an
// iterative solve reports (kernel, seconds, bytes moved). Set it before
// serving queries; it must not race with in-flight solves.
func (e *Engine) SetKernelHook(f func(kernel string, seconds float64, bytes int64)) {
	e.kernelHook = f
}

// poolFor resolves the Parallelism option to a pool: 0 shares the
// process-wide pool, 1 is serial (nil pool), n > 1 is a dedicated sticky
// pool — persistent workers with a deterministic chunk assignment.
func poolFor(parallelism int) *par.Pool {
	switch {
	case parallelism == 1:
		return nil
	case parallelism > 1:
		return par.NewStickyPool(parallelism)
	default:
		return par.Shared()
	}
}

// attachPool points every stored matrix (and the ILU factors) at the
// engine's pool so the query-path SpMVs and triangular sweeps
// row-partition across it, then first-touches each matrix: the row
// partition is cached, and on a sticky pool each worker rewrites its own
// partition segment so the pages it will stream every apply are placed
// local to it.
func (e *Engine) attachPool() {
	for _, m := range []*sparse.CSR32{e.h12, e.h21, e.h31, e.h32, e.schur} {
		m.SetPool(e.pool).FirstTouch()
	}
	if e.ilu != nil {
		e.ilu.SetPool(e.pool)
	}
	e.prep.Workers = e.pool.Workers()
}

// setMatrices narrows the wide partition blocks and Schur complement into
// the engine's compact layout, and compacts the ILU factors. Narrowing
// shares the value slices, so only the index arrays are rebuilt.
func (e *Engine) setMatrices(h12, h21, h31, h32, schur *sparse.CSR) {
	e.h12, e.h21 = sparse.Compact(h12), sparse.Compact(h21)
	e.h31, e.h32 = sparse.Compact(h31), sparse.Compact(h32)
	e.schur = sparse.Compact(schur)
	if e.ilu != nil {
		e.ilu.Compact()
	}
}

// checkIndexRange rejects graphs whose node count exceeds the uint32 index
// range of the compact layout the engine stores its matrices in.
func checkIndexRange(n int) error {
	if !sparse.FitsCompact(n, n) {
		return fmt.Errorf("core: %d nodes exceed the uint32 index range", n)
	}
	return nil
}

// SetParallelism re-points the engine (and its matrices) at a pool for the
// given parallelism level, using the same resolution as
// Options.Parallelism. It is meant for right after loading a saved index;
// it must not race with in-flight queries.
func (e *Engine) SetParallelism(n int) {
	e.opts.Parallelism = n
	e.pool = poolFor(n)
	e.attachPool()
}

// Pool exposes the engine's compute pool (nil means serial).
func (e *Engine) Pool() *par.Pool { return e.pool }

// Preprocess runs Algorithm 1/3 on the graph and returns a query-ready
// engine.
func Preprocess(g *graph.Graph, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := checkIndexRange(g.N()); err != nil {
		return nil, err
	}
	start := time.Now()

	e := &Engine{opts: opts, n: g.N(), pool: poolFor(opts.Parallelism)}
	e.prep.N, e.prep.M = g.N(), g.M()
	e.prep.HubRatio = opts.HubRatio
	e.prep.Workers = e.pool.Workers()

	// 1. Node reordering: deadends to the tail, SlashBurn on the rest.
	t0 := time.Now()
	e.ord = reorder.HubAndSpoke(g, opts.HubRatio)
	e.prep.Reorder = time.Since(t0)
	if opts.Deadline > 0 && time.Since(start) > opts.Deadline {
		return nil, fmt.Errorf("after %v: %w", time.Since(start).Round(time.Millisecond), ErrDeadline)
	}
	return e.preprocessFrom(g, start)
}

// PreprocessWithOrdering runs preprocessing stages 2–6 (build H, partition,
// factor H11, Schur complement, ILU, compaction) under a caller-supplied
// node ordering, skipping the SlashBurn reordering stage entirely. It is the
// from-scratch reference for the delta-rebuild path: a spoke-only delta
// rebuild must be bit-identical to PreprocessWithOrdering of the updated
// graph under the reused ordering. The ordering must cover exactly g.N()
// nodes and pass its own validation.
func PreprocessWithOrdering(g *graph.Graph, opts Options, ord *reorder.Ordering) (*Engine, error) {
	opts = opts.withDefaults()
	if len(ord.Perm) != g.N() {
		return nil, fmt.Errorf("core: ordering covers %d nodes, graph has %d", len(ord.Perm), g.N())
	}
	if err := ord.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid ordering: %w", err)
	}
	if err := checkIndexRange(g.N()); err != nil {
		return nil, err
	}
	start := time.Now()
	e := &Engine{opts: opts, n: g.N(), ord: ord, pool: poolFor(opts.Parallelism)}
	e.prep.N, e.prep.M = g.N(), g.M()
	e.prep.HubRatio = opts.HubRatio
	e.prep.Workers = e.pool.Workers()
	return e.preprocessFrom(g, start)
}

// preprocessFrom runs stages 2–6 of preprocessing on an engine whose
// ordering (e.ord) is already in place. start anchors the deadline budget
// and the Total stat.
func (e *Engine) preprocessFrom(g *graph.Graph, start time.Time) (*Engine, error) {
	opts := e.opts
	deadline := func() error {
		if opts.Deadline > 0 && time.Since(start) > opts.Deadline {
			return fmt.Errorf("after %v: %w", time.Since(start).Round(time.Millisecond), ErrDeadline)
		}
		return nil
	}
	e.prep.N1, e.prep.N2, e.prep.N3 = e.ord.N1, e.ord.N2, e.ord.N3
	e.prep.Blocks = len(e.ord.Blocks)

	// 2. Build the reordered H = I − (1−c)Ãᵀ and partition it.
	t0 := time.Now()
	h := BuildH(g, e.ord.Perm, opts.C)
	n1, n2 := e.ord.N1, e.ord.N2
	l := n1 + n2
	h11 := h.Block(0, n1, 0, n1)
	h12 := h.Block(0, n1, n1, l)
	h21 := h.Block(n1, l, 0, n1)
	h22 := h.Block(n1, l, n1, l)
	h31 := h.Block(l, e.n, 0, n1)
	h32 := h.Block(l, e.n, n1, l)
	e.prep.BuildH = time.Since(t0)
	if err := deadline(); err != nil {
		return nil, err
	}

	// 3. Per-block LU of the block-diagonal H11, blocks in parallel.
	t0 = time.Now()
	var err error
	e.h11LU, err = lu.FactorBlockDiagPool(h11, e.ord.Blocks, e.pool)
	if err != nil {
		return nil, fmt.Errorf("core: factoring H11: %w", err)
	}
	e.prep.FactorH11 = time.Since(t0)
	if opts.MemoryBudget > 0 && e.h11LU.MemoryBytes() > opts.MemoryBudget {
		return nil, fmt.Errorf("H11 factors need %d bytes: %w", e.h11LU.MemoryBytes(), ErrMemoryBudget)
	}
	if err := deadline(); err != nil {
		return nil, err
	}

	// 4. Schur complement S = H22 − H21·H11⁻¹·H12, columns in parallel.
	// The engine already needs column views of H12/H21, so it builds the
	// transposes once here and hands them in instead of letting
	// SchurComplement rebuild them.
	t0 = time.Now()
	schur := SchurComplementT(h22, h21.Transpose(), h12.Transpose(), e.h11LU, e.pool)
	e.prep.Schur = time.Since(t0)
	e.prep.SchurNNZ = schur.NNZ()
	if err := deadline(); err != nil {
		return nil, err
	}

	// 5. ILU(0) preconditioner for the full variant, factored from the wide
	// S before any index compaction.
	if opts.Variant == VariantFull {
		t0 = time.Now()
		e.ilu, err = lu.FactorILU0(schur)
		if err != nil {
			return nil, fmt.Errorf("core: ILU(0) of S: %w", err)
		}
		e.prep.ILU = time.Since(t0)
	}
	// 6. Narrow the index arrays: the wide copies are dropped here, so the
	// budget check below sees the footprint queries will pay.
	e.setMatrices(h12, h21, h31, h32, schur)
	e.prep.Total = time.Since(start)
	if opts.MemoryBudget > 0 && e.MemoryBytes() > opts.MemoryBudget {
		return nil, fmt.Errorf("preprocessed data needs %d bytes: %w", e.MemoryBytes(), ErrMemoryBudget)
	}
	e.attachPool()
	return e, nil
}

// BuildH constructs the reordered system matrix H = P(I − (1−c)Ãᵀ)Pᵀ
// directly from the graph in O(m): entry (perm[v], perm[u]) receives
// −(1−c)/outdeg(u) for every edge (u, v), and the diagonal is 1.
func BuildH(g *graph.Graph, perm []int, c float64) *sparse.CSR {
	n := g.N()
	coo := sparse.NewCOO(n, n)
	coo.Reserve(g.M() + n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	for u := 0; u < n; u++ {
		deg := g.OutDegree(u)
		if deg == 0 {
			continue
		}
		w := -(1 - c) / float64(deg)
		pu := u
		if perm != nil {
			pu = perm[u]
		}
		for _, v := range g.OutNeighbors(u) {
			pv := v
			if perm != nil {
				pv = perm[v]
			}
			coo.Add(pv, pu, w)
		}
	}
	return coo.ToCSR()
}

// SchurComplement computes S = H22 − H21·H11⁻¹·H12 column by column,
// exploiting the block-diagonal H11: each H12 column only activates the
// blocks it touches. It builds the column views (transposes) of H12/H21
// itself and runs serially; callers that already hold the transposes — the
// engine builds them once during preprocessing — should use
// SchurComplementT directly.
func SchurComplement(h22, h21, h12 *sparse.CSR, h11LU *lu.BlockLU) *sparse.CSR {
	return SchurComplementT(h22, h21.Transpose(), h12.Transpose(), h11LU, nil)
}

// schurScratch is the per-worker state of a parallel Schur build: a dense
// accumulator with last-touched column marks, a substitution scratch
// vector, and a COO shard collecting the worker's −H21·H11⁻¹·H12 entries.
type schurScratch struct {
	acc     []float64
	mark    []int
	scratch []float64
	touched []int
	coo     *sparse.COO
}

// SchurComplementT is SchurComplement over the pre-transposed column views
// h21T (n1×n2, row i = column i of H21) and h12T (n2×n1, row j = column j
// of H12), with the n2 columns partitioned across the pool. Each worker
// accumulates its columns with the serial algorithm into a private
// accumulator and COO shard; shards merge in deterministic chunk order.
// Per-column accumulation order is unchanged and every (i, j) entry is
// produced exactly once, so the result is bit-identical to the serial path
// at any worker count. A nil pool runs serially.
func SchurComplementT(h22, h21T, h12T *sparse.CSR, h11LU *lu.BlockLU, pool *par.Pool) *sparse.CSR {
	n2 := h22.Rows()
	parts := pool.Workers()
	if parts > 1 && n2 < 2 {
		parts = 1
	}
	arena := par.NewArena(parts, func() *schurScratch {
		mark := make([]int, n2)
		for i := range mark {
			mark[i] = -1
		}
		return &schurScratch{
			acc:     make([]float64, n2),
			mark:    mark,
			scratch: make([]float64, maxInt(h11LU.MaxBlockSize(), 1)),
			coo:     sparse.NewCOO(n2, n2),
		}
	})

	// Build Sᵀ row by row (row j of Sᵀ = column j of S): y = H21 ·
	// (H11⁻¹ · H12[:,j]) accumulated sparsely, then staged as −y; S = H22 +
	// (−H21·H11⁻¹·H12). Columns are independent: each touches only its own
	// chunk's scratch and shard.
	columnRange := func(chunk, jlo, jhi int) {
		w := arena.Get(chunk)
		for j := jlo; j < jhi; j++ {
			w.touched = w.touched[:0]
			s, e := h12T.RowRange(j)
			idx := h12T.ColIdx()[s:e]
			vals := h12T.Values()[s:e]
			h11LU.SolveSparse(idx, vals, w.scratch, func(row int, x float64) {
				rs, re := h21T.RowRange(row)
				cols := h21T.ColIdx()[rs:re]
				vs := h21T.Values()[rs:re]
				for p, i := range cols {
					if w.mark[i] != j {
						w.mark[i] = j
						w.acc[i] = 0
						w.touched = append(w.touched, i)
					}
					w.acc[i] += vs[p] * x
				}
			})
			for _, i := range w.touched {
				if w.acc[i] != 0 {
					w.coo.Add(i, j, -w.acc[i])
				}
			}
		}
	}

	if parts <= 1 {
		arena.Get(0).coo.Reserve(h22.NNZ())
		columnRange(0, 0, n2)
		return h22.Add(arena.Get(0).coo.ToCSR())
	}
	// Balance chunks by H12-column fill (the substitution fan-out driver).
	bounds := par.BoundsByPrefix(h12T.RowPtr(), parts)
	pool.ForBounds(bounds, columnRange)
	// Merge shards in chunk order. Entry order does not affect ToCSR's
	// result here — every (i, j) appears in exactly one shard — but a
	// deterministic order keeps the whole pipeline reproducible.
	merged := sparse.NewCOO(n2, n2)
	total := 0
	for c := 0; c < len(bounds)-1; c++ {
		total += arena.Get(c).coo.NNZ()
	}
	merged.Reserve(total)
	for c := 0; c < len(bounds)-1; c++ {
		merged.Append(arena.Get(c).coo)
	}
	return h22.Add(merged.ToCSR())
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// N returns the number of nodes the engine was built for.
func (e *Engine) N() int { return e.n }

// Options returns the (defaulted) options the engine was built with.
func (e *Engine) Options() Options { return e.opts }

// PrepStats returns preprocessing statistics.
func (e *Engine) PrepStats() PrepStats { return e.prep }

// Ordering exposes the node ordering (for experiments).
func (e *Engine) Ordering() *reorder.Ordering { return e.ord }

// Schur exposes the Schur complement (for experiments; read-only) as a
// widened copy of the stored compact matrix.
func (e *Engine) Schur() *sparse.CSR { return e.schur.ToCSR() }

// MemoryBytes reports the total footprint of the preprocessed data:
// the H11 LU factors, the partition blocks H12/H21/H31/H32, the Schur
// complement, and (for full BePI) its ILU factors, all in the stored
// compact layout. This is the quantity in Figure 1(b) of the paper.
func (e *Engine) MemoryBytes() int64 {
	total := e.h11LU.MemoryBytes() +
		e.h12.MemoryBytes() + e.h21.MemoryBytes() +
		e.h31.MemoryBytes() + e.h32.MemoryBytes() +
		e.schur.MemoryBytes()
	if e.ilu != nil {
		total += e.ilu.MemoryBytes()
	}
	// Permutation arrays.
	total += int64(2 * e.n * 8)
	return total
}

// Preconditioned reports whether the engine applies an ILU preconditioner.
func (e *Engine) Preconditioned() bool { return e.ilu != nil }

// ILU exposes the ILU(0) factors of S (nil unless VariantFull), for the
// spectrum experiments.
func (e *Engine) ILU() *lu.ILU { return e.ilu }
