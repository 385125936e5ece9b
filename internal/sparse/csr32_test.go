package sparse

import (
	"math/rand"
	"strings"
	"testing"

	"bepi/internal/par"
)

// csr32Cases are the graph shapes the compact kernels must match the wide
// kernels on bit-for-bit: an RMAT-like skewed random matrix (randBigCSR
// sprinkles empty and heavy rows), a matrix that is one dense mega-row, a
// single-column matrix, and an all-empty one.
func csr32Cases() map[string]*CSR {
	cases := map[string]*CSR{
		"skewed": randBigCSR(2000, 1700, 20, 11),
		"empty":  Zero(50, 70),
	}
	coo := NewCOO(5, ParallelMinNNZ)
	for j := 0; j < ParallelMinNNZ; j++ {
		coo.Add(3, j, float64(j%17)-8)
	}
	cases["dense-row"] = coo.ToCSR()
	one := NewCOO(400, 1)
	for i := 0; i < 400; i += 3 {
		one.Add(i, 0, float64(i)*0.25-30)
	}
	cases["single-col"] = one.ToCSR()
	return cases
}

// TestCSR32BitIdentical checks every CSR32 float64 kernel against its CSR
// twin by representation (Float64bits), serially and at several worker
// counts, across the pathological shapes.
func TestCSR32BitIdentical(t *testing.T) {
	for name, m := range csr32Cases() {
		t.Run(name, func(t *testing.T) {
			rows, cols := m.Rows(), m.Cols()
			x := randVec(cols, 2)
			xt := randVec(rows, 3)
			for i := 0; i < len(xt); i += 5 {
				xt[i] = 0 // exercise the scatter zero-skip on both sides
			}

			wantMul := make([]float64, rows)
			m.MulVec(wantMul, x)
			wantT := make([]float64, cols)
			m.MulVecT(wantT, xt)
			const batch = 4
			xb := make([][]float64, batch)
			wantB := make([][]float64, batch)
			for k := range xb {
				xb[k] = randVec(cols, int64(10+k))
				wantB[k] = make([]float64, rows)
			}
			m.MulVecBatch(wantB, xb)

			for _, workers := range []int{1, 3, 8} {
				c := Compact(m.Clone())
				if workers > 1 {
					c.SetPool(par.NewPool(workers))
				}

				got := make([]float64, rows)
				c.MulVec(got, x)
				if i, ok := bitsEqual(got, wantMul); !ok {
					t.Fatalf("workers=%d MulVec differs at %d: %v vs %v", workers, i, got[i], wantMul[i])
				}

				gotT := make([]float64, cols)
				c.MulVecT(gotT, xt)
				if i, ok := bitsEqual(gotT, wantT); !ok {
					t.Fatalf("workers=%d MulVecT (scatter) differs at %d", workers, i)
				}
				// The transpose-gather path is == equal to the scatter (zero
				// signs may differ), matching the CSR contract.
				c.CacheTranspose()
				c.MulVecT(gotT, xt)
				for j := range gotT {
					if gotT[j] != wantT[j] {
						t.Fatalf("workers=%d MulVecT (gather) [%d] = %v want %v", workers, j, gotT[j], wantT[j])
					}
				}

				gotB := make([][]float64, batch)
				for k := range gotB {
					gotB[k] = make([]float64, rows)
				}
				c.MulVecBatch(gotB, xb)
				for k := range gotB {
					if i, ok := bitsEqual(gotB[k], wantB[k]); !ok {
						t.Fatalf("workers=%d MulVecBatch rhs %d differs at %d", workers, k, i)
					}
				}
			}
		})
	}
}

// TestCSR32RoundTripAndMemory: Compact is lossless (ToCSR gives an Equal
// matrix) and cuts the index footprint in half — 8 bytes/entry of index vs
// CSR's 16, and 4-byte row pointers when nnz fits int32.
func TestCSR32RoundTripAndMemory(t *testing.T) {
	m := randBigCSR(1200, 900, 12, 7)
	c := Compact(m)
	if !c.ToCSR().Equal(m) {
		t.Fatal("Compact -> ToCSR is not the identity")
	}

	// Index bytes: CSR stores 8 per col + 8 per rowPtr entry; CSR32 4+4.
	wideIdx := int64(m.NNZ())*8 + int64(len(m.rowPtr))*8
	compactIdx := c.MemoryBytes() - int64(m.NNZ())*8 // subtract shared float64 values
	if compactIdx*2 != wideIdx {
		t.Fatalf("index bytes not halved: compact %d vs wide %d", compactIdx, wideIdx)
	}
	if c.MemoryBytes() >= m.MemoryBytes() {
		t.Fatalf("MemoryBytes did not shrink: %d vs %d", c.MemoryBytes(), m.MemoryBytes())
	}
}

// TestNewCSR32Invariants: the compact constructors reject malformed input
// instead of repairing it.
func TestNewCSR32Invariants(t *testing.T) {
	ok := func() { NewCSR32(2, 3, []int32{0, 1, 2}, []uint32{2, 0}, []float64{1, 2}) }
	ok()
	cases := map[string]func(){
		"rowPtr-length":     func() { NewCSR32(2, 3, []int32{0, 2}, []uint32{0, 1}, []float64{1, 2}) },
		"rowPtr-decreasing": func() { NewCSR32(2, 3, []int32{0, 2, 1}, []uint32{0, 1}, []float64{1, 2}) },
		"rowPtr-start":      func() { NewCSR32(2, 3, []int32{1, 1, 2}, []uint32{0, 1}, []float64{1, 2}) },
		"col-out-of-range":  func() { NewCSR32(2, 3, []int32{0, 1, 2}, []uint32{0, 3}, []float64{1, 2}) },
		"col-unsorted":      func() { NewCSR32(1, 3, []int32{0, 2}, []uint32{1, 0}, []float64{1, 2}) },
		"col-duplicate":     func() { NewCSR32(1, 3, []int32{0, 2}, []uint32{1, 1}, []float64{1, 2}) },
		"val-length":        func() { NewCSR32(2, 3, []int32{0, 1, 2}, []uint32{0, 1}, []float64{1}) },
		"wide-tail":         func() { NewCSR32Wide(1, 2, []int64{0, 3}, []uint32{0, 1}, []float64{1, 2}) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("malformed input accepted")
				}
			}()
			fn()
		})
	}
}

// TestValidate pins the helper's verdicts on well-formed and broken inputs.
func TestValidate(t *testing.T) {
	if err := Validate(3, 4, []int{0, 1, 1, 3}, []int{2, 0, 3}); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if err := Validate(0, 0, []int{0}, nil); err != nil {
		t.Fatalf("empty matrix rejected: %v", err)
	}
	bad := []struct {
		name       string
		rows, cols int
		rowPtr     []int
		col        []int
		frag       string
	}{
		{"negative-dims", -1, 4, []int{0}, nil, "negative"},
		{"short-rowPtr", 3, 4, []int{0, 1}, []int{0}, "length"},
		{"bad-start", 2, 4, []int{1, 1, 2}, []int{0, 1}, "rowPtr[0]"},
		{"decreasing", 2, 4, []int{0, 2, 1}, []int{0, 1}, "decreases"},
		{"tail-mismatch", 2, 4, []int{0, 1, 3}, []int{0, 1}, "want len(col)"},
		{"col-negative", 1, 4, []int{0, 1}, []int{-1}, "out of range"},
		{"col-too-big", 1, 4, []int{0, 1}, []int{4}, "out of range"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.rows, tc.cols, tc.rowPtr, tc.col)
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

// TestCSR32CompactPreservesTransposeAndPool: compaction carries the pool
// and any cached transpose across.
func TestCSR32CompactPreservesTransposeAndPool(t *testing.T) {
	pool := par.NewPool(4)
	m := randBigCSR(300, 250, 5, 13).SetPool(pool)
	m.CacheTranspose()
	c := Compact(m)
	if c.Pool() != pool {
		t.Fatal("Compact dropped the pool")
	}
	if c.tr == nil || c.tr.Pool() != pool {
		t.Fatal("Compact dropped the cached transpose or its pool")
	}
	c2 := Compact(randBigCSR(300, 250, 5, 14))
	c2.CacheTranspose()
	p2 := par.NewPool(2)
	c2.SetPool(p2)
	if c2.tr.Pool() != p2 {
		t.Fatal("SetPool did not propagate to the compact cached transpose")
	}
}

func TestCSR32RandomizedAgainstCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		m := randCSR(rng, 1+rng.Intn(40), 1+rng.Intn(40), rng.Float64()*0.3)
		c := Compact(m)
		if !c.ToCSR().Equal(m) {
			t.Fatalf("trial %d: round trip broke", trial)
		}
		x := randVec(m.Cols(), int64(trial))
		want := make([]float64, m.Rows())
		got := make([]float64, m.Rows())
		m.MulVec(want, x)
		c.MulVec(got, x)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("trial %d: MulVec differs at %d", trial, i)
		}
	}
}
