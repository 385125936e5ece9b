package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/sparse"
	"bepi/internal/vec"
)

// applyOpsToGraph materializes the updated graph a delta describes.
func applyOpsToGraph(g *graph.Graph, n int, ops []EdgeDelta) *graph.Graph {
	set := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		set[[2]int{e.Src, e.Dst}] = true
	}
	for _, op := range ops {
		if op.Insert {
			set[[2]int{op.Src, op.Dst}] = true
		} else {
			delete(set, [2]int{op.Src, op.Dst})
		}
	}
	edges := make([]graph.Edge, 0, len(set))
	for k := range set {
		edges = append(edges, graph.Edge{Src: k[0], Dst: k[1]})
	}
	return graph.MustNew(n, edges)
}

// genSpokeDeltaOps builds a batch of ops every one of which ApplyDelta can
// absorb exactly: spoke sources, targets confined to the source's own H11
// block or to hubs/deadends.
func genSpokeDeltaOps(rng *rand.Rand, g *graph.Graph, e *Engine, count int) []EdgeDelta {
	ord := e.ord
	n1 := ord.N1
	var spokes []int
	for u := 0; u < g.N(); u++ {
		if ord.Perm[u] < n1 {
			spokes = append(spokes, u)
		}
	}
	if len(spokes) == 0 {
		return nil
	}
	var ops []EdgeDelta
	used := make(map[[2]int]bool)
	for guard := 0; len(ops) < count && guard < 100*count; guard++ {
		u := spokes[rng.Intn(len(spokes))]
		if rng.Intn(2) == 0 && g.OutDegree(u) > 1 {
			nbrs := g.OutNeighbors(u)
			v := nbrs[rng.Intn(len(nbrs))]
			if used[[2]int{u, v}] {
				continue
			}
			used[[2]int{u, v}] = true
			ops = append(ops, EdgeDelta{Src: u, Dst: v, Insert: false})
			continue
		}
		b := e.h11LU.BlockOf(ord.Perm[u])
		lo, hi := e.h11LU.BlockRange(b)
		var pv int
		if rng.Intn(2) == 0 {
			pv = lo + rng.Intn(hi-lo)
		} else {
			pv = n1 + rng.Intn(g.N()-n1)
		}
		v := ord.Inv[pv]
		if g.HasEdge(u, v) || used[[2]int{u, v}] {
			continue
		}
		used[[2]int{u, v}] = true
		ops = append(ops, EdgeDelta{Src: u, Dst: v, Insert: true})
	}
	return ops
}

// genHubDeltaOps builds ops whose sources are hubs (targets unconstrained).
func genHubDeltaOps(rng *rand.Rand, g *graph.Graph, e *Engine, count int) []EdgeDelta {
	ord := e.ord
	n1, l := ord.N1, ord.N1+ord.N2
	var hubs []int
	for u := 0; u < g.N(); u++ {
		if p := ord.Perm[u]; p >= n1 && p < l {
			hubs = append(hubs, u)
		}
	}
	if len(hubs) == 0 {
		return nil
	}
	var ops []EdgeDelta
	used := make(map[[2]int]bool)
	for guard := 0; len(ops) < count && guard < 100*count; guard++ {
		u := hubs[rng.Intn(len(hubs))]
		if rng.Intn(2) == 0 && g.OutDegree(u) > 1 {
			nbrs := g.OutNeighbors(u)
			v := nbrs[rng.Intn(len(nbrs))]
			if used[[2]int{u, v}] {
				continue
			}
			used[[2]int{u, v}] = true
			ops = append(ops, EdgeDelta{Src: u, Dst: v, Insert: false})
			continue
		}
		v := rng.Intn(g.N())
		if g.HasEdge(u, v) || used[[2]int{u, v}] {
			continue
		}
		used[[2]int{u, v}] = true
		ops = append(ops, EdgeDelta{Src: u, Dst: v, Insert: true})
	}
	return ops
}

// matBitsEqual compares two stored matrices entry-for-entry including the
// exact float bits and the sparsity pattern (explicit zeros included).
func matBitsEqual(t *testing.T, name string, a, b *sparse.CSR32) {
	t.Helper()
	csrBitsEqual(t, name, a.ToCSR(), b.ToCSR())
}

// csrBitsEqual is matBitsEqual for wide matrices.
func csrBitsEqual(t *testing.T, name string, aw, bw *sparse.CSR) {
	t.Helper()
	if aw.Rows() != bw.Rows() || aw.Cols() != bw.Cols() || aw.NNZ() != bw.NNZ() {
		t.Fatalf("%s: shape/nnz mismatch %dx%d/%d vs %dx%d/%d",
			name, aw.Rows(), aw.Cols(), aw.NNZ(), bw.Rows(), bw.Cols(), bw.NNZ())
	}
	for i := 0; i < aw.Rows(); i++ {
		as, ae := aw.RowRange(i)
		bs, be := bw.RowRange(i)
		if ae-as != be-bs {
			t.Fatalf("%s: row %d length differs", name, i)
		}
		for k := 0; k < ae-as; k++ {
			if aw.ColIdx()[as+k] != bw.ColIdx()[bs+k] {
				t.Fatalf("%s: row %d pattern differs", name, i)
			}
			av, bv := aw.Values()[as+k], bw.Values()[bs+k]
			if math.Float64bits(av) != math.Float64bits(bv) {
				t.Fatalf("%s: row %d col %d: %v vs %v (bits differ)", name, i, aw.ColIdx()[as+k], av, bv)
			}
		}
	}
}

// requireQueryBitsEqual runs queries on both engines and demands
// bit-identical result vectors — the strongest end-to-end check, covering
// the factors, the ILU, and the solve trajectory.
func requireQueryBitsEqual(t *testing.T, a, b *Engine, seeds []int) {
	t.Helper()
	for _, s := range seeds {
		ra, _, err := a.Query(s)
		if err != nil {
			t.Fatalf("seed %d: delta engine: %v", s, err)
		}
		rb, _, err := b.Query(s)
		if err != nil {
			t.Fatalf("seed %d: reference engine: %v", s, err)
		}
		for i := range ra {
			if math.Float64bits(ra[i]) != math.Float64bits(rb[i]) {
				t.Fatalf("seed %d: result differs at %d: %v vs %v", s, i, ra[i], rb[i])
			}
		}
	}
}

// TestDeltaSpokeBitIdentical is the core property: a spoke-only delta
// rebuild is bit-identical to a full preprocess of the updated graph under
// the reused ordering — matrices, Schur complement, and query results — on
// an RMAT graph and a pathological near-uniform one, across operator
// variants and on a dedicated worker pool.
func TestDeltaSpokeBitIdentical(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(gen.DefaultRMAT(8, 6, 17)),
		"ws":   gen.WattsStrogatz(300, 6, 0.05, 3),
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"full", Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10}},
		{"full-par4", Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10, Parallelism: 4}},
		{"b", Options{Variant: VariantB, HubRatio: 0.01, Tol: 1e-10}},
	}
	for gname, g := range graphs {
		for _, tc := range cases {
			t.Run(gname+"/"+tc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(91))
				e0, err := Preprocess(g, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				ops := genSpokeDeltaOps(rng, g, e0, 12)
				if len(ops) == 0 {
					t.Skip("no spoke ops generable")
				}
				gNew := applyOpsToGraph(g, g.N(), ops)
				e1, st, err := e0.ApplyDelta(gNew, ops)
				if err != nil {
					t.Fatalf("ApplyDelta: %v", err)
				}
				if st.Class != DeltaSpoke {
					t.Fatalf("class %v, want DeltaSpoke", st.Class)
				}
				if st.TouchedBlocks == 0 || st.AffectedColumns == 0 {
					t.Fatalf("stats %+v: expected touched blocks and affected columns", st)
				}
				if e1.Corrected() || e1.Drift() != 0 {
					t.Fatalf("spoke delta left correction state: corrected=%v drift=%v", e1.Corrected(), e1.Drift())
				}
				ref, err := PreprocessWithOrdering(gNew, tc.opts, e1.ord)
				if err != nil {
					t.Fatalf("reference preprocess: %v", err)
				}
				matBitsEqual(t, "h12", e1.h12, ref.h12)
				matBitsEqual(t, "h21", e1.h21, ref.h21)
				matBitsEqual(t, "h31", e1.h31, ref.h31)
				matBitsEqual(t, "h32", e1.h32, ref.h32)
				matBitsEqual(t, "schur", e1.schur, ref.schur)
				requireQueryBitsEqual(t, e1, ref, []int{0, 1, g.N() / 2, g.N() - 1})
			})
		}
	}
}

// TestDeltaSequentialSpoke chains two spoke deltas and checks the second
// result is still bit-identical to a from-scratch preprocess — patches
// compose without error accumulation.
func TestDeltaSequentialSpoke(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 29))
	opts := Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10}
	e0, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ops1 := genSpokeDeltaOps(rng, g, e0, 6)
	g1 := applyOpsToGraph(g, g.N(), ops1)
	e1, _, err := e0.ApplyDelta(g1, ops1)
	if err != nil {
		t.Fatal(err)
	}
	ops2 := genSpokeDeltaOps(rng, g1, e1, 6)
	g2 := applyOpsToGraph(g1, g1.N(), ops2)
	e2, _, err := e1.ApplyDelta(g2, ops2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := PreprocessWithOrdering(g2, opts, e2.ord)
	if err != nil {
		t.Fatal(err)
	}
	matBitsEqual(t, "schur", e2.schur, ref.schur)
	requireQueryBitsEqual(t, e2, ref, []int{2, g.N() / 3})
}

// TestDeltaNodeGrowth checks pure node growth plus spoke edges toward the
// new nodes: the ordering grows an identity tail, H31/H32 gain rows, and
// the result matches a full preprocess bit-for-bit. It also pins the
// satellite bug: a growth-only delta (no ops) must still produce an engine
// covering the new nodes.
func TestDeltaNodeGrowth(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 33))
	opts := Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10}
	e0, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Growth only: three nodes, no edges.
	gGrow := graph.MustNew(g.N()+3, g.Edges())
	e1, st, err := e0.ApplyDelta(gGrow, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Class != DeltaSpoke || st.NewNodes != 3 {
		t.Fatalf("stats %+v, want spoke class with 3 new nodes", st)
	}
	if e1.N() != g.N()+3 {
		t.Fatalf("engine covers %d nodes, want %d", e1.N(), g.N()+3)
	}
	r, _, err := e1.Query(g.N() + 1) // seed at a brand-new node
	if err != nil {
		t.Fatal(err)
	}
	if r[g.N()+1] <= 0 {
		t.Fatal("new node got no restart mass")
	}

	// Growth plus spoke edges pointing at the new (deadend) nodes.
	rng := rand.New(rand.NewSource(8))
	var ops []EdgeDelta
	for u := 0; u < g.N() && len(ops) < 4; u++ {
		if e0.ord.Perm[u] < e0.ord.N1 && !g.HasEdge(u, g.N()+len(ops)) {
			ops = append(ops, EdgeDelta{Src: u, Dst: g.N() + len(ops), Insert: true})
		}
	}
	_ = rng
	gNew := applyOpsToGraph(g, g.N()+3, ops[:3])
	e2, st2, err := e0.ApplyDelta(gNew, ops[:3])
	if err != nil {
		t.Fatal(err)
	}
	if st2.Class != DeltaSpoke {
		t.Fatalf("class %v, want DeltaSpoke", st2.Class)
	}
	ref, err := PreprocessWithOrdering(gNew, opts, e2.ord)
	if err != nil {
		t.Fatal(err)
	}
	matBitsEqual(t, "h31", e2.h31, ref.h31)
	matBitsEqual(t, "schur", e2.schur, ref.schur)
	requireQueryBitsEqual(t, e2, ref, []int{0, g.N() + 2})
}

// TestDeltaHubWoodbury checks the hub path: the
// corrected engine answers within solver tolerance of a full rebuild, with
// identical top-k sets, reports its correction state, and refuses to
// serialize.
func TestDeltaHubWoodbury(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 41))
	opts := Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10}
	e0, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	ops := genHubDeltaOps(rng, g, e0, 5)
	if len(ops) == 0 {
		t.Skip("no hubs")
	}
	gNew := applyOpsToGraph(g, g.N(), ops)
	e1, st, err := e0.ApplyDelta(gNew, ops)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if st.Class != DeltaHub || st.Rank == 0 {
		t.Fatalf("stats %+v, want hub class with positive rank", st)
	}
	if !e1.Corrected() {
		t.Fatal("hub delta must install a Woodbury correction")
	}
	if e1.Drift() <= 0 || st.Drift != e1.Drift() {
		t.Fatalf("drift %v (stats %v), want positive and consistent", e1.Drift(), st.Drift)
	}
	if _, err := e1.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("corrected engine serialized; want refusal")
	}

	ref, err := Preprocess(gNew, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int{0, 3, g.N() / 2} {
		got, _, err := e1.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if d := vec.Dist2(got, want); d > 1e-7 {
			t.Fatalf("seed %d: corrected query off by %v", seed, d)
		}
		const k = 10
		tk1, err := e1.TopK(seed, k)
		if err != nil {
			t.Fatal(err)
		}
		tk2, err := ref.TopK(seed, k)
		if err != nil {
			t.Fatal(err)
		}
		s1 := make(map[int]bool, k)
		for _, r := range tk1 {
			s1[r.Node] = true
		}
		for _, r := range tk2 {
			if !s1[r.Node] {
				t.Fatalf("seed %d: top-%d sets differ (missing node %d)", seed, k, r.Node)
			}
		}
	}

	// Bounded top-k must fall back to full solves (certificate invalid on
	// corrected iterates) yet still return the right set.
	tb, _, err := e1.TopKBounded(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ref.TopK(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr {
		if tb[i].Node != tr[i].Node {
			t.Fatalf("bounded top-k on corrected engine: rank %d node %d want %d", i, tb[i].Node, tr[i].Node)
		}
	}
}

// TestDeltaDriftFallback checks the rebuild-demand paths: a tiny threshold
// rejects hub deltas with ErrDriftExceeded, and a negative MaxHubDrift
// disables the hub path outright.
func TestDeltaDriftFallback(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 47))
	rng := rand.New(rand.NewSource(23))
	opts := Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10, MaxHubDrift: 1e-15}
	e0, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops := genHubDeltaOps(rng, g, e0, 4)
	if len(ops) == 0 {
		t.Skip("no hubs")
	}
	gNew := applyOpsToGraph(g, g.N(), ops)
	if _, _, err := e0.ApplyDelta(gNew, ops); !errors.Is(err, ErrDriftExceeded) {
		t.Fatalf("err=%v, want ErrDriftExceeded", err)
	}

	opts.MaxHubDrift = -1
	eNeg, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eNeg.ApplyDelta(gNew, ops); !errors.Is(err, ErrDeltaFull) {
		t.Fatalf("MaxHubDrift<0: err=%v, want ErrDeltaFull", err)
	}
}

// TestDeltaFullClassification checks every refusal path returns
// ErrDeltaFull without mutating the receiver.
func TestDeltaFullClassification(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 53))
	opts := Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10}
	e0, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ord := e0.ord
	n1, l := ord.N1, ord.N1+ord.N2

	// A deadend gaining its first out-edge.
	var dead int = -1
	for u := 0; u < g.N(); u++ {
		if ord.Perm[u] >= l {
			dead = u
			break
		}
	}
	if dead >= 0 {
		ops := []EdgeDelta{{Src: dead, Dst: 0, Insert: true}}
		gNew := applyOpsToGraph(g, g.N(), ops)
		if _, _, err := e0.ApplyDelta(gNew, ops); !errors.Is(err, ErrDeltaFull) {
			t.Fatalf("deadend source: err=%v, want ErrDeltaFull", err)
		}
	}

	// A spoke edge crossing H11 blocks.
	if len(ord.Blocks) >= 2 {
		var crossOp EdgeDelta
		found := false
	outer:
		for u := 0; u < g.N() && !found; u++ {
			pu := ord.Perm[u]
			if pu >= n1 {
				continue
			}
			b := e0.h11LU.BlockOf(pu)
			for pv := 0; pv < n1; pv++ {
				if e0.h11LU.BlockOf(pv) != b && !g.HasEdge(u, ord.Inv[pv]) {
					crossOp = EdgeDelta{Src: u, Dst: ord.Inv[pv], Insert: true}
					found = true
					continue outer
				}
			}
		}
		if found {
			gNew := applyOpsToGraph(g, g.N(), []EdgeDelta{crossOp})
			if _, _, err := e0.ApplyDelta(gNew, []EdgeDelta{crossOp}); !errors.Is(err, ErrDeltaFull) {
				t.Fatalf("cross-block edge: err=%v, want ErrDeltaFull", err)
			}
		}
	}

	// A new node with out-edges.
	ops := []EdgeDelta{{Src: g.N(), Dst: 0, Insert: true}}
	gNew := applyOpsToGraph(g, g.N()+1, ops)
	if _, _, err := e0.ApplyDelta(gNew, ops); !errors.Is(err, ErrDeltaFull) {
		t.Fatalf("new-node source: err=%v, want ErrDeltaFull", err)
	}

	// An op inconsistent with the updated graph: claims an insert the
	// graph doesn't contain.
	badDst := -1
	for v := 0; v < g.N(); v++ {
		if !g.HasEdge(0, v) {
			badDst = v
			break
		}
	}
	if badDst >= 0 {
		bad := []EdgeDelta{{Src: 0, Dst: badDst, Insert: true}}
		if _, _, err := e0.ApplyDelta(g, bad); !errors.Is(err, ErrDeltaFull) {
			t.Fatalf("inconsistent op: err=%v, want ErrDeltaFull", err)
		}
	}

	// A shrinking graph.
	small := graph.MustNew(2, nil)
	if _, _, err := e0.ApplyDelta(small, nil); !errors.Is(err, ErrDeltaFull) {
		t.Fatalf("shrink: err=%v, want ErrDeltaFull", err)
	}

	// The receiver must still answer correctly after all refusals.
	if _, _, err := e0.Query(0); err != nil {
		t.Fatalf("receiver corrupted by refused deltas: %v", err)
	}
}
