package core

import (
	"math"
	"math/rand"
	"testing"

	"bepi/internal/gen"
)

// TestStickyEngineBitIdentical: an engine on a dedicated pool gets sticky
// workers and first-touched matrices — placement machinery that must leave
// every query answer bit-identical to the serial engine.
func TestStickyEngineBitIdentical(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 15))
	serial, err := Preprocess(g, Options{Variant: VariantFull, Tol: 1e-10, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := Preprocess(g, Options{Variant: VariantFull, Tol: 1e-10, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sticky.Pool().Close()
	if !sticky.Pool().Sticky() {
		t.Fatal("Parallelism=4 engine does not run a sticky pool")
	}
	rng := rand.New(rand.NewSource(17))
	for q := 0; q < 5; q++ {
		seed := rng.Intn(g.N())
		want, _, err := serial.Query(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, _, err := sticky.Query(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: r[%d] = %v sticky vs %v serial", seed, i, got[i], want[i])
			}
		}
	}
}
