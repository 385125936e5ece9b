// Package bepi computes Random Walk with Restart (RWR) proximity scores on
// large directed graphs. It implements BePI (Jung, Park, Sael, Kang —
// SIGMOD 2017), a hybrid of preprocessing and iterative methods: a one-time
// preprocessing phase reorders the graph around its deadends and
// hub-and-spoke structure, factors the easy block-diagonal part exactly,
// and keeps only a sparse Schur complement that each query solves with
// ILU-preconditioned GMRES.
//
// Basic usage:
//
//	g, _ := bepi.NewGraph(4, []bepi.Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
//	eng, _ := bepi.New(g)
//	scores, _ := eng.Query(0)            // RWR scores w.r.t. node 0
//	top, _ := eng.TopK(0, 10)            // ten most related nodes
//
// The preprocessed index can be persisted with Engine.Save and reloaded
// with Load, so the (comparatively expensive) preprocessing phase runs only
// once per graph.
package bepi

import (
	"fmt"
	"io"
	"time"

	"bepi/internal/core"
	"bepi/internal/gen"
	"bepi/internal/graph"
)

// Version identifies this build of the serving system; it is surfaced as
// the bepi_build_info gauge on every Prometheus exposition and carried on
// /metrics/snapshot payloads so a mixed-version fleet is visible at the
// coordinator. Bump it with behavior-visible releases.
const Version = "0.9.0"

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst int
}

// Graph is an immutable directed graph over nodes 0..N-1.
type Graph struct {
	inner *graph.Graph
}

// NewGraph builds a graph with n nodes from the given edges. Duplicate
// edges collapse; nodes without out-edges are deadends (handled natively by
// the solver).
func NewGraph(n int, edges []Edge) (*Graph, error) {
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{Src: e.Src, Dst: e.Dst}
	}
	g, err := graph.New(n, es)
	if err != nil {
		return nil, err
	}
	return &Graph{inner: g}, nil
}

// ReadGraph parses a whitespace-separated "src dst" edge list ('#' and '%'
// lines are comments). The node count is the largest id seen plus one.
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{inner: g}, nil
}

// ReadGraphMatrixMarket parses a MatrixMarket coordinate stream as a
// directed graph (each stored entry (i, j) is the edge i→j).
func ReadGraphMatrixMarket(r io.Reader) (*Graph, error) {
	g, err := graph.ReadMatrixMarketGraph(r)
	if err != nil {
		return nil, err
	}
	return &Graph{inner: g}, nil
}

// WriteMatrixMarket writes the graph's adjacency pattern in MatrixMarket
// coordinate format.
func (g *Graph) WriteMatrixMarket(w io.Writer) error { return g.inner.WriteMatrixMarket(w) }

// RMAT generates a synthetic power-law graph with 2^scale nodes and about
// edgeFactor·2^scale edges — the structure (hubs, spokes, deadends) BePI is
// designed for. Deterministic in seed.
func RMAT(scale, edgeFactor int, seed int64) *Graph {
	return &Graph{inner: gen.RMAT(gen.DefaultRMAT(scale, edgeFactor, seed))}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.inner.N() }

// M returns the number of distinct directed edges.
func (g *Graph) M() int { return g.inner.M() }

// WriteEdgeList writes the graph as a "src dst" edge list.
func (g *Graph) WriteEdgeList(w io.Writer) error { return g.inner.WriteEdgeList(w) }

// Edges returns all edges in (src, dst) order.
func (g *Graph) Edges() []Edge {
	inner := g.inner.Edges()
	out := make([]Edge, len(inner))
	for i, e := range inner {
		out[i] = Edge{Src: e.Src, Dst: e.Dst}
	}
	return out
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool { return g.inner.HasEdge(u, v) }

// OutDegree returns the number of out-edges of node u.
func (g *Graph) OutDegree(u int) int { return g.inner.OutDegree(u) }

// OutNeighbors returns the sorted out-neighbors of node u (do not mutate).
func (g *Graph) OutNeighbors(u int) []int { return g.inner.OutNeighbors(u) }

// Internal exposes the internal graph representation for the example and
// benchmark programs inside this module.
func (g *Graph) Internal() *graph.Graph { return g.inner }

// Variant selects the algorithm version; the default (full BePI) is right
// for almost all uses. The reduced variants exist for ablation studies.
type Variant = core.Variant

// Algorithm variants.
const (
	// BePIB disables both Schur sparsification and preconditioning.
	BePIB = core.VariantB
	// BePIS enables Schur sparsification only.
	BePIS = core.VariantS
	// BePIFull is the complete algorithm (default).
	BePIFull = core.VariantFull
)

// Option customizes engine construction.
type Option func(*core.Options)

// WithRestartProb sets the restart probability c ∈ (0, 1); default 0.05.
// Smaller c spreads scores further from the seed.
func WithRestartProb(c float64) Option {
	return func(o *core.Options) { o.C = c }
}

// WithTolerance sets the solver tolerance ε; default 1e-9.
func WithTolerance(tol float64) Option {
	return func(o *core.Options) { o.Tol = tol }
}

// WithVariant selects BePIB, BePIS or BePIFull (default BePIFull).
func WithVariant(v Variant) Option {
	return func(o *core.Options) { o.Variant = v }
}

// WithHubRatio overrides the SlashBurn hub selection ratio k ∈ (0, 1);
// defaults follow the paper (0.2, or 0.001 for BePIB).
func WithHubRatio(k float64) Option {
	return func(o *core.Options) { o.HubRatio = k }
}

// SchurSolver selects the iterative solver for the Schur system.
type SchurSolver = core.SchurSolver

// Schur solvers.
const (
	// SolverGMRES is the paper's solver (default).
	SolverGMRES = core.SolverGMRES
	// SolverBiCGSTAB uses constant memory in the iteration count.
	SolverBiCGSTAB = core.SolverBiCGSTAB
)

// WithSchurSolver selects GMRES (default) or BiCGSTAB for the per-query
// Schur-complement solve.
func WithSchurSolver(s SchurSolver) Option {
	return func(o *core.Options) { o.Solver = s }
}

// WithMaxIterations bounds GMRES iterations per query; default 1000.
func WithMaxIterations(n int) Option {
	return func(o *core.Options) { o.MaxIter = n }
}

// WithMemoryBudget aborts preprocessing if the index would exceed the given
// number of bytes.
func WithMemoryBudget(bytes int64) Option {
	return func(o *core.Options) { o.MemoryBudget = bytes }
}

// WithDeadline aborts preprocessing if it runs longer than d.
func WithDeadline(d time.Duration) Option {
	return func(o *core.Options) { o.Deadline = d }
}

// WithParallelism caps how many cores preprocessing and the query kernels
// use: 0 (default) shares a process-wide GOMAXPROCS-sized pool with every
// other engine, 1 forces serial execution, n > 1 gives the engine its own
// n-worker pool. Results are bit-identical at every setting.
func WithParallelism(n int) Option {
	return func(o *core.Options) { o.Parallelism = n }
}

// WithMaxHubDrift bounds how far hub-touching incremental updates may
// perturb the Schur complement before a Dynamic flush falls back to a full
// rebuild: the drift score is ‖S_now − S_base‖F/‖S_base‖F accumulated
// across hub deltas. 0 (the default) selects 0.1; a negative value disables
// the hub-delta path entirely, so any hub-touching delta triggers a full
// rebuild. Spoke-only deltas are exact and unaffected by this knob.
func WithMaxHubDrift(max float64) Option {
	return func(o *core.Options) { o.MaxHubDrift = max }
}

// Engine is a preprocessed RWR index. It is safe for concurrent queries.
type Engine struct {
	inner *core.Engine
}

// New preprocesses the graph and returns a query-ready engine.
func New(g *Graph, opts ...Option) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("bepi: nil graph")
	}
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	e, err := core.Preprocess(g.inner, o)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: e}, nil
}

// N returns the number of nodes the engine was built for.
func (e *Engine) N() int { return e.inner.N() }

// Query returns the RWR score vector for the seed node: scores[u] is the
// steady-state probability that a random surfer restarting at seed is at u.
func (e *Engine) Query(seed int) ([]float64, error) {
	r, _, err := e.inner.Query(seed)
	return r, err
}

// QueryStats reports the cost of one query alongside its result.
type QueryStats struct {
	Duration   time.Duration
	Iterations int // GMRES iterations on the Schur system
	Residual   float64
}

// QueryWithStats is Query plus solve statistics.
func (e *Engine) QueryWithStats(seed int) ([]float64, QueryStats, error) {
	r, st, err := e.inner.Query(seed)
	return r, QueryStats{Duration: st.Duration, Iterations: st.Iterations, Residual: st.Residual}, err
}

// Personalized computes Personalized PageRank for an arbitrary starting
// distribution q (length N; entries should sum to 1). RWR is the
// single-seed special case.
func (e *Engine) Personalized(q []float64) ([]float64, error) {
	r, _, err := e.inner.QueryVector(q)
	return r, err
}

// Ranked is a node with its RWR score.
type Ranked struct {
	Node  int
	Score float64
}

// TopK returns the k nodes most related to seed (descending score, seed
// excluded).
func (e *Engine) TopK(seed, k int) ([]Ranked, error) {
	rs, err := e.inner.TopK(seed, k)
	if err != nil {
		return nil, err
	}
	out := make([]Ranked, len(rs))
	for i, r := range rs {
		out[i] = Ranked{Node: r.Node, Score: r.Score}
	}
	return out, nil
}

// TopKBounded is TopK with certified early termination: the Schur solve
// halts as soon as a calibrated score-error radius proves the k-th /
// (k+1)-th gap can no longer change which k nodes win. The returned SET
// is always identical to TopK's; earlyStopped reports whether the
// certificate fired (when false the solve ran to the engine tolerance and
// the result is bit-identical to TopK, order included). The first bounded
// call calibrates the radius with a few reference solves; services that
// care about first-query latency should issue a throwaway call at warmup.
func (e *Engine) TopKBounded(seed, k int) ([]Ranked, bool, error) {
	rs, st, err := e.inner.TopKBounded(seed, k)
	if err != nil {
		return nil, false, err
	}
	out := make([]Ranked, len(rs))
	for i, r := range rs {
		out[i] = Ranked{Node: r.Node, Score: r.Score}
	}
	return out, st.EarlyStopped, nil
}

// MemoryBytes reports the footprint of the preprocessed index.
func (e *Engine) MemoryBytes() int64 { return e.inner.MemoryBytes() }

// SetParallelism re-points the engine at a compute pool for the given
// parallelism level (same semantics as WithParallelism). Indexes loaded
// with Load start on the shared pool; call this before serving queries —
// it must not race with them.
func (e *Engine) SetParallelism(n int) { e.inner.SetParallelism(n) }

// Drift reports the engine's accumulated hub-delta drift score — how far
// incremental hub updates have moved the true Schur complement from the
// factored base (see WithMaxHubDrift). Zero for engines whose factors are
// exact for the graph they serve, including all spoke-only delta rebuilds.
func (e *Engine) Drift() float64 { return e.inner.Drift() }

// Corrected reports whether the engine serves through a Woodbury low-rank
// correction installed by a hub delta. Corrected engines answer within the
// solver tolerance but are not bit-identical to a full rebuild, cannot be
// Saved, and serve top-k without certified early termination.
func (e *Engine) Corrected() bool { return e.inner.Corrected() }

// PreprocessTime reports how long preprocessing took.
func (e *Engine) PreprocessTime() time.Duration { return e.inner.PrepStats().Total }

// Save persists the preprocessed index.
func (e *Engine) Save(w io.Writer) error {
	_, err := e.inner.WriteTo(w)
	return err
}

// Load reloads an index written by Save.
func Load(r io.Reader) (*Engine, error) {
	inner, err := core.ReadEngine(r)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// Internal exposes the core engine for the benchmark and example programs
// inside this module.
func (e *Engine) Internal() *core.Engine { return e.inner }
