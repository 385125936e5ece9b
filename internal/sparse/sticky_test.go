package sparse

import (
	"math"
	"testing"

	"bepi/internal/par"
)

// TestStickyFirstTouchBitIdentical: FirstTouch on a sticky pool rewrites the
// index/value backing arrays from the owning workers and caches the row
// partition — neither may change any kernel's output by a single bit, in
// either layout.
func TestStickyFirstTouchBitIdentical(t *testing.T) {
	m := randBigCSR(3000, 2500, 20, 88)
	if m.NNZ() < ParallelMinNNZ {
		t.Fatalf("fixture too small: nnz=%d", m.NNZ())
	}
	x := randVec(m.Cols(), 2)
	xt := randVec(m.Rows(), 3)
	const batch = 4
	xb := make([][]float64, batch)
	wantB := make([][]float64, batch)
	for k := range xb {
		xb[k] = randVec(m.Cols(), int64(10+k))
		wantB[k] = make([]float64, m.Rows())
	}
	wantMul := make([]float64, m.Rows())
	m.MulVec(wantMul, x)
	wantT := make([]float64, m.Cols())
	m.MulVecT(wantT, xt)
	m.MulVecBatch(wantB, xb)

	for _, workers := range []int{2, 8} {
		pool := par.NewStickyPool(workers)
		c := m.Clone().SetPool(pool)
		c.CacheTranspose()
		c.FirstTouch()
		if c.bounds == nil {
			t.Fatalf("workers=%d: FirstTouch did not cache the partition", workers)
		}
		if !c.Equal(m) {
			t.Fatalf("workers=%d: FirstTouch changed the matrix", workers)
		}
		for rep := 0; rep < 3; rep++ {
			got := make([]float64, m.Rows())
			c.MulVec(got, x)
			if i, ok := bitsEqual(got, wantMul); !ok {
				t.Fatalf("workers=%d MulVec differs at %d", workers, i)
			}
			gotT := make([]float64, m.Cols())
			c.MulVecT(gotT, xt)
			if i, ok := bitsEqual(gotT, wantT); !ok {
				t.Fatalf("workers=%d MulVecT differs at %d", workers, i)
			}
			gotB := make([][]float64, batch)
			for k := range gotB {
				gotB[k] = make([]float64, m.Rows())
			}
			c.MulVecBatch(gotB, xb)
			for k := range gotB {
				if i, ok := bitsEqual(gotB[k], wantB[k]); !ok {
					t.Fatalf("workers=%d batch rhs %d differs at %d", workers, k, i)
				}
			}
		}

		// Compact layout through the same pool.
		c32 := Compact(m.Clone()).SetPool(pool).FirstTouch()
		if c32.bounds == nil {
			t.Fatalf("workers=%d: CSR32 FirstTouch did not cache the partition", workers)
		}
		got := make([]float64, m.Rows())
		c32.MulVec(got, x)
		if i, ok := bitsEqual(got, wantMul); !ok {
			t.Fatalf("workers=%d CSR32 MulVec differs at %d", workers, i)
		}
		pool.Close()
	}
}

// TestStickyFirstTouchBelowThreshold: FirstTouch must be a no-op (no cached
// bounds, unchanged slices) on matrices the parallel gate rejects, and on
// serial or plain pools it must only cache bounds, never reallocate.
func TestStickyFirstTouchBelowThreshold(t *testing.T) {
	small := randBigCSR(40, 40, 3, 8).SetPool(par.NewStickyPool(4))
	colBefore := &small.col[0]
	small.FirstTouch()
	if small.bounds != nil {
		t.Fatal("below-threshold FirstTouch cached a partition")
	}
	if &small.col[0] != colBefore {
		t.Fatal("below-threshold FirstTouch reallocated the index array")
	}

	big := randBigCSR(3000, 2500, 20, 12)
	plain := big.Clone().SetPool(par.NewPool(4))
	colBefore = &plain.col[0]
	plain.FirstTouch()
	if plain.bounds == nil {
		t.Fatal("plain-pool FirstTouch did not cache the partition")
	}
	if &plain.col[0] != colBefore {
		t.Fatal("plain-pool FirstTouch reallocated (only sticky pools first-touch)")
	}
	// SetPool must drop the stale partition: a different worker count needs
	// different bounds.
	plain.SetPool(par.NewPool(2))
	if plain.bounds != nil {
		t.Fatal("SetPool kept a stale cached partition")
	}

	// CSR32: FirstTouch rewrites the compact index and value arrays in place.
	c := Compact(big.Clone()).SetPool(par.NewStickyPool(4))
	want := make([]float64, big.Rows())
	x := randVec(big.Cols(), 9)
	c.MulVec(want, x)
	c.FirstTouch()
	got := make([]float64, big.Rows())
	c.MulVec(got, x)
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("CSR32 FirstTouch changed results at %d", i)
	}
}

// TestStickyPoolCSR32TransposeGatherBitIdentical is the transpose-gather
// pinning test: with a strictly nonzero x (so the scatter's zero-skip and
// the gather's multiply-through agree on zero signs), the parallel gather
// over the cached transpose must reproduce the serial scatter exactly by
// representation, at several worker counts, sticky and plain.
func TestStickyPoolCSR32TransposeGatherBitIdentical(t *testing.T) {
	for trial := int64(0); trial < 3; trial++ {
		m := randBigCSR(2200, 1800, 18, 90+trial)
		if m.NNZ() < ParallelMinNNZ {
			t.Fatalf("fixture too small: nnz=%d", m.NNZ())
		}
		x := randVec(m.Rows(), 50+trial)
		for i := range x {
			if x[i] == 0 {
				x[i] = 0.5 // keep the scatter's zero-skip out of play
			}
		}
		want := make([]float64, m.Cols())
		Compact(m.Clone()).MulVecT(want, x) // serial scatter reference
		for _, workers := range []int{2, 8} {
			for _, sticky := range []bool{false, true} {
				var pool *par.Pool
				if sticky {
					pool = par.NewStickyPool(workers)
				} else {
					pool = par.NewPool(workers)
				}
				c := Compact(m.Clone()).SetPool(pool)
				c.CacheTranspose()
				if sticky {
					c.FirstTouch()
				}
				got := make([]float64, m.Cols())
				c.MulVecT(got, x)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("trial %d workers=%d sticky=%v: gather MulVecT[%d] = %v (bits %x), scatter %v (bits %x)",
							trial, workers, sticky, j, got[j], math.Float64bits(got[j]),
							want[j], math.Float64bits(want[j]))
					}
				}
				pool.Close()
			}
		}
	}
}
