package main

import (
	"fmt"
	"math"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/gen"
)

// sizeSpec is the generated graph's size: flickr-syn's full-size
// parameters by default, a tiny graph for the self-test.
type sizeSpec struct {
	scale, edgeFactor int
}

var sizes = map[string]sizeSpec{
	"full": {scale: 14, edgeFactor: 14},
	"tiny": {scale: 9, edgeFactor: 8},
}

// inputs is one workload's generated graph, in the form the program takes
// and as a plain edge list for the oracle.
type inputs struct {
	g     *bepi.Graph
	n     int
	edges []bepi.Edge
}

// makeInputs generates the community-overlaid R-MAT graph (gen.Hybrid)
// for the seed. Everything random in a workload derives from the same seed.
func makeInputs(size sizeSpec, seed int64) (*inputs, error) {
	ig := gen.Hybrid(gen.DefaultHybrid(size.scale, size.edgeFactor, seed))
	es := ig.Edges()
	edges := make([]bepi.Edge, len(es))
	for i, e := range es {
		edges[i] = bepi.Edge{Src: e.Src, Dst: e.Dst}
	}
	g, err := bepi.NewGraph(ig.N(), edges)
	if err != nil {
		return nil, fmt.Errorf("building graph: %w", err)
	}
	return &inputs{g: g, n: ig.N(), edges: edges}, nil
}

// oracle checks RWR answers straight from an edge list, independent of
// the engine: r solves r = (1−c)·Ãᵀr + c·e_s, where Ã is the row-normalized
// adjacency and deadends leak their mass (they have no out-edges to pass
// it on), so the residual of a correct answer is at solver tolerance.
type oracle struct {
	n      int
	c      float64
	src    []int32
	dst    []int32
	outDeg []int32
}

// residualLimit is the largest RWR residual ‖r − (1−c)Ãᵀr − c·e_s‖₂ an
// answer may have. Answers at the engine's default tolerance (1e-9 on the
// Schur system) sit orders of magnitude below it; a corrupted score of
// 1e-6 or more lands above it.
const residualLimit = 1e-7

func newOracle(n int, edges []bepi.Edge) *oracle {
	o := &oracle{n: n, c: core.DefaultC, src: make([]int32, len(edges)), dst: make([]int32, len(edges)), outDeg: make([]int32, n)}
	for i, e := range edges {
		o.src[i], o.dst[i] = int32(e.Src), int32(e.Dst)
		o.outDeg[e.Src]++
	}
	return o
}

// residual returns ‖r − (1−c)Ãᵀr − c·e_seed‖₂.
func (o *oracle) residual(seed int, r []float64) float64 {
	if len(r) != o.n {
		return math.Inf(1)
	}
	res := make([]float64, o.n)
	copy(res, r)
	for i, u := range o.src {
		res[o.dst[i]] -= (1 - o.c) * r[u] / float64(o.outDeg[u])
	}
	res[seed] -= o.c
	var s float64
	for _, v := range res {
		s += v * v
	}
	return math.Sqrt(s)
}

// checkScores rejects a score vector whose residual exceeds the limit or
// that is not a finite non-negative vector.
func (o *oracle) checkScores(seed int, r []float64) error {
	for u, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < -residualLimit {
			return fmt.Errorf("seed %d: score[%d] = %g", seed, u, v)
		}
	}
	if res := o.residual(seed, r); !(res <= residualLimit) {
		return fmt.Errorf("seed %d: RWR residual %.3g exceeds %.0e", seed, res, residualLimit)
	}
	return nil
}

// checkTopSet rejects a top-k node set that differs from the reference
// set, except for swaps among nodes whose oracle-checked scores tie with
// the k-th score within the solver tolerance.
func checkTopSet(seed int, got, want []int, scores []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("seed %d: %d top nodes, want %d", seed, len(got), len(want))
	}
	if len(want) == 0 {
		return nil
	}
	in := make(map[int]bool, len(want))
	kth := math.Inf(1)
	for _, u := range want {
		in[u] = true
		kth = math.Min(kth, scores[u])
	}
	seen := make(map[int]bool, len(got))
	for _, u := range got {
		if u < 0 || u >= len(scores) || seen[u] {
			return fmt.Errorf("seed %d: top node %d out of range or repeated", seed, u)
		}
		seen[u] = true
		if !in[u] && math.Abs(scores[u]-kth) > 1e-9 {
			return fmt.Errorf("seed %d: node %d (score %.6g) in top set, k-th score is %.6g", seed, u, scores[u], kth)
		}
	}
	return nil
}

// checkRanking validates the shape of a top-k answer the oracle does not
// recompute: k distinct in-range nodes other than the seed, finite scores
// in descending order.
func checkRanking(seed, k, n int, top []bepi.Ranked) error {
	if want := min(k, n-1); len(top) != want {
		return fmt.Errorf("seed %d: %d ranked nodes, want %d", seed, len(top), want)
	}
	seen := make(map[int]bool, len(top))
	for i, t := range top {
		switch {
		case t.Node < 0 || t.Node >= n || t.Node == seed || seen[t.Node]:
			return fmt.Errorf("seed %d: bad ranked node %d", seed, t.Node)
		case math.IsNaN(t.Score) || t.Score < 0 || t.Score > 1:
			return fmt.Errorf("seed %d: bad score %g", seed, t.Score)
		case i > 0 && t.Score > top[i-1].Score:
			return fmt.Errorf("seed %d: ranking not descending at %d", seed, i)
		}
		seen[t.Node] = true
	}
	return nil
}
