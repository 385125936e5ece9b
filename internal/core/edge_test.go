package core

import (
	"math"
	"testing"

	"bepi/internal/graph"
)

// TestAllDeadendGraph: with no edges at all, the RWR vector is exactly c·q.
func TestAllDeadendGraph(t *testing.T) {
	g := graph.MustNew(5, nil)
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, st, err := e.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Fatalf("no Schur system to solve, got %d iterations", st.Iterations)
	}
	for i, v := range r {
		want := 0.0
		if i == 2 {
			want = DefaultC
		}
		if math.Abs(v-want) > 1e-15 {
			t.Fatalf("r[%d] = %v want %v", i, v, want)
		}
	}
}

// TestEmptyGraph: the degenerate zero-node graph round-trips cleanly.
func TestEmptyGraph(t *testing.T) {
	g := graph.MustNew(0, nil)
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Query(0); err == nil {
		t.Fatal("expected range error on empty engine")
	}
	r, _, err := e.QueryVector(nil)
	if err != nil || len(r) != 0 {
		t.Fatalf("empty QueryVector: %v, %v", r, err)
	}
}

// TestSelfLoopOnlyGraph: a node whose only edge is a self-loop keeps all
// its probability mass.
func TestSelfLoopOnlyGraph(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 0}})
	e, err := Preprocess(g, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := e.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-1) > 1e-9 {
		t.Fatalf("self-loop seed mass %v, want 1", r[0])
	}
	exact, err := ExactDense(g, DefaultC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-exact[0]) > 1e-9 {
		t.Fatalf("self-loop vs exact: %v vs %v", r[0], exact[0])
	}
}

// TestDeadendSeed: querying from a deadend gives c at the seed, zero
// elsewhere (the surfer's non-restart steps die immediately).
func TestDeadendSeed(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{Src: 0, Dst: 3}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}})
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := e.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range r {
		want := 0.0
		if i == 3 {
			want = DefaultC
		}
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("r[%d] = %v want %v", i, v, want)
		}
	}
}

// TestTwoNodeCycleClosedForm checks BePI against the hand-derived solution
// of the 2-cycle: r0 = c/(1−(1−c)²)·1, r1 = (1−c)·r0... solved exactly.
func TestTwoNodeCycleClosedForm(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}})
	c := 0.15
	e, err := Preprocess(g, Options{C: c, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := e.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	// H = [[1, −(1−c)], [−(1−c), 1]], H r = c e0 ⇒
	// r0 = c/(1−(1−c)²), r1 = (1−c)·r0.
	d := 1 - (1-c)*(1-c)
	want0 := c / d
	want1 := (1 - c) * want0
	if math.Abs(r[0]-want0) > 1e-10 || math.Abs(r[1]-want1) > 1e-10 {
		t.Fatalf("r = %v, want [%v %v]", r, want0, want1)
	}
	if math.Abs(r[0]+r[1]-1) > 1e-10 {
		t.Fatal("cycle should conserve probability mass")
	}
}

// TestDeadendLeaksMass pins BePI's dead-end semantics: a walk that reaches
// a dead end loses its continuation mass instead of restarting, so on a
// graph with a reachable dead end the scores sum to less than one. With
// H = I − (1−c)Ãᵀ and dead-end rows of Ã all zero, summing Hr = c·q gives
// Σr = 1 − (1−c)/c · Σ_{dead} r exactly; a restart-at-dead-end walk would
// keep Σr = 1.
func TestDeadendLeaksMass(t *testing.T) {
	// 0 → 1 → {0, 2}; node 2 is a dead end reachable from the seed.
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2}})
	c := DefaultC
	e, err := Preprocess(g, Options{C: c, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := e.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactDense(g, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := range r {
		if math.Abs(r[i]-exact[i]) > 1e-12 {
			t.Fatalf("r[%d] = %v, ExactDense %v", i, r[i], exact[i])
		}
		sum += r[i]
	}
	if r[2] <= 0 {
		t.Fatalf("dead end unreached: r = %v", r)
	}
	if want := 1 - (1-c)/c*r[2]; sum >= 1-1e-3 || math.Abs(sum-want) > 1e-12 {
		t.Fatalf("score mass %v, want %v (< 1: dead-end mass leaks)", sum, want)
	}
}
