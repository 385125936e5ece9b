package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/lu"
	"bepi/internal/par"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// parBench holds the shared fixture for the parallel-kernel benchmarks: an
// R-MAT graph at the acceptance scale (~1e6 edges) carved into BePI's
// blocks. Built once, on first benchmark use only.
var parBench struct {
	once               sync.Once
	ord                *reorder.Ordering
	h11, h12, h21, h22 *sparse.CSR
	h12T, h21T         *sparse.CSR
	f                  *lu.BlockLU
}

func parBenchSetup(b *testing.B) {
	parBench.once.Do(func() {
		g := gen.RMAT(gen.DefaultRMAT(16, 16, 1)) // 65_536 nodes, ~1M edges
		ord := reorder.HubAndSpoke(g, 0.2)
		h := BuildH(g, ord.Perm, DefaultC)
		n1, l := ord.N1, ord.N1+ord.N2
		parBench.ord = ord
		parBench.h11 = h.Block(0, n1, 0, n1)
		parBench.h12 = h.Block(0, n1, n1, l)
		parBench.h21 = h.Block(n1, l, 0, n1)
		parBench.h22 = h.Block(n1, l, n1, l)
		parBench.h12T = parBench.h12.Transpose()
		parBench.h21T = parBench.h21.Transpose()
		f, err := lu.FactorBlockDiag(parBench.h11, ord.Blocks)
		if err != nil {
			panic(err)
		}
		parBench.f = f
	})
	if parBench.f == nil {
		b.Fatal("benchmark fixture failed to build")
	}
}

// benchWorkerCounts returns the ladder the acceptance criterion speaks of:
// serial, 2, 4, and every core. Duplicates (e.g. on a 4-core machine) are
// dropped.
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	var out []int
	for _, c := range counts {
		dup := false
		for _, seen := range out {
			dup = dup || seen == c
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// runAtWidth pins GOMAXPROCS to the worker count for the sub-benchmark so
// "workers=1" really measures the serial machine, then restores it.
func runAtWidth(b *testing.B, fn func(b *testing.B, pool *par.Pool)) {
	for _, w := range benchWorkerCounts() {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(prev)
			var pool *par.Pool
			if w > 1 {
				pool = par.NewPool(w)
			}
			fn(b, pool)
		})
	}
}

// BenchmarkSchurComplement measures the column-partitioned Schur build
// S = H22 − H21·H11⁻¹·H12 on the ~1M-edge fixture.
func BenchmarkSchurComplement(b *testing.B) {
	parBenchSetup(b)
	runAtWidth(b, func(b *testing.B, pool *par.Pool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := SchurComplementT(parBench.h22, parBench.h21T, parBench.h12T, parBench.f, pool)
			if s.NNZ() == 0 {
				b.Fatal("empty Schur complement")
			}
		}
	})
}

// BenchmarkFactorBlockDiag measures the per-block dense LU of H11 with the
// independent blocks factored across the pool.
func BenchmarkFactorBlockDiag(b *testing.B) {
	parBenchSetup(b)
	runAtWidth(b, func(b *testing.B, pool *par.Pool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lu.FactorBlockDiagPool(parBench.h11, parBench.ord.Blocks, pool); err != nil {
				b.Fatal(err)
			}
		}
	})
}
