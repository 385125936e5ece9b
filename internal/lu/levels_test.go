package lu

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/par"
	"bepi/internal/sparse"
)

// randSparseDiag builds a random square matrix with a guaranteed dominant
// diagonal and roughly nnzPerRow off-diagonal entries per row.
func randSparseDiag(n, nnzPerRow int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+rng.Float64())
		for e := 0; e < nnzPerRow; e++ {
			if j := rng.Intn(n); j != i {
				coo.Add(i, j, rng.NormFloat64()*0.3)
			}
		}
	}
	return coo.ToCSR()
}

// TestILULevelsRespectDependencies checks the defining schedule property:
// every strict-lower (resp. strict-upper) dependency of a row sits in a
// strictly earlier level of the forward (resp. backward) schedule.
func TestILULevelsRespectDependencies(t *testing.T) {
	a := randSparseDiag(500, 6, 1)
	f, err := FactorILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	levelOf := func(tf *triFactor) []int {
		lv := make([]int, f.n)
		for l := 0; l+1 < len(tf.bounds); l++ {
			for k := tf.bounds[l]; k < tf.bounds[l+1]; k++ {
				lv[tf.order[k]] = l
			}
		}
		return lv
	}
	fl := levelOf(&f.l)
	bl := levelOf(&f.u)
	for k := 0; k < f.n; k++ {
		i := int(f.l.order[k])
		start, end := f.l.rowSpan(k)
		for p := start; p < end; p++ {
			j := f.l.colAt(p)
			if j >= i {
				t.Fatalf("L storage row %d holds non-lower column %d (row %d)", k, j, i)
			}
			if fl[j] >= fl[i] {
				t.Fatalf("forward: row %d (level %d) depends on row %d (level %d)", i, fl[i], j, fl[j])
			}
		}
	}
	for k := 0; k < f.n; k++ {
		i := int(f.u.order[k])
		start, end := f.u.rowSpan(k)
		if start >= end || f.u.colAt(start) != i {
			t.Fatalf("U storage row %d does not lead with its diagonal", k)
		}
		for p := start + 1; p < end; p++ {
			j := f.u.colAt(p)
			if j <= i {
				t.Fatalf("U storage row %d holds non-upper column %d (row %d)", k, j, i)
			}
			if bl[j] >= bl[i] {
				t.Fatalf("backward: row %d (level %d) depends on row %d (level %d)", i, bl[i], j, bl[j])
			}
		}
	}
	// A triangular-free diagonal matrix collapses to one level.
	d, err := FactorILU0(sparse.Identity(10))
	if err != nil {
		t.Fatal(err)
	}
	if fwd, bwd := d.Levels(); fwd != 1 || bwd != 1 {
		t.Fatalf("identity levels = %d/%d want 1/1", fwd, bwd)
	}
}

// TestParallelILUApplyBitIdentical runs the level-scheduled Apply at
// several worker counts, wide and compacted, against the serial result
// under Float64bits equality — the same contract as the SpMV kernels.
func TestParallelILUApplyBitIdentical(t *testing.T) {
	// Big enough to clear iluParallelMinNNZ so the leveled path engages.
	a := randSparseDiag(6000, 8, 2)
	f, err := FactorILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.NNZ() < iluParallelMinNNZ {
		t.Fatalf("test system too small: nnz=%d < %d", f.NNZ(), iluParallelMinNNZ)
	}
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, f.n)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	want := make([]float64, f.n)
	f.Apply(want, src)

	for _, workers := range []int{2, 4, 8} {
		for _, compact := range []bool{false, true} {
			g, err := FactorILU0(a)
			if err != nil {
				t.Fatal(err)
			}
			if compact {
				g.Compact()
				if !g.Compacted() {
					t.Fatal("Compact did not narrow")
				}
			}
			g.SetPool(par.NewPool(workers))
			got := make([]float64, g.n)
			g.Apply(got, src)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("workers=%d compact=%v: dst[%d] = %v want %v", workers, compact, i, got[i], want[i])
				}
			}
			// Aliased dst/src must work on every path too.
			alias := append([]float64(nil), src...)
			g.Apply(alias, alias)
			for i := range alias {
				if math.Float64bits(alias[i]) != math.Float64bits(want[i]) {
					t.Fatalf("workers=%d compact=%v aliased: dst[%d] differs", workers, compact, i)
				}
			}
		}
	}
}

// TestILUCompactApplySerialBitIdentical pins the narrowed-index serial
// sweeps against the wide ones on a small system (below the parallel
// threshold, so both run serially).
func TestILUCompactApplySerialBitIdentical(t *testing.T) {
	a := randSparseDiag(300, 5, 4)
	wide, err := FactorILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := FactorILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	narrow.Compact()
	src := make([]float64, wide.n)
	for i := range src {
		src[i] = float64(i%17) - 8.5
	}
	want := make([]float64, wide.n)
	wide.Apply(want, src)
	got := make([]float64, narrow.n)
	narrow.Apply(got, src)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("compact Apply differs at %d", i)
		}
	}
	// Split must still reconstruct the factors after compaction.
	lw, uw := wide.Split()
	ln, un := narrow.Split()
	if !lw.Equal(ln) || !uw.Equal(un) {
		t.Fatal("Split changed after Compact")
	}
}

// TestILUMemoryBytesPinned pins MemoryBytes against manually computed
// sizes, wide and compacted — the accounting the serving layer's memory
// budget relies on.
func TestILUMemoryBytesPinned(t *testing.T) {
	a := randSparseDiag(200, 4, 5)
	f, err := FactorILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	n, nnz := int64(f.n), int64(f.NNZ())
	if nnz != int64(a.NNZ()) {
		t.Fatalf("factor nnz %d != matrix nnz %d", nnz, a.NNZ())
	}
	fwd, bwd := f.Levels()
	// Level order/boundary arrays, int32 each, one order entry per row per
	// sweep plus levels+1 bounds per sweep.
	sched := 4 * (2*n + int64(fwd+1) + int64(bwd+1))

	wide := nnz*8 + // values (split across L and U)
		nnz*8 + // columns
		2*(n+1)*8 + // two row-pointer arrays
		sched
	if got := f.MemoryBytes(); got != wide {
		t.Fatalf("wide MemoryBytes = %d want %d", got, wide)
	}

	f.Compact()
	compact := nnz*8 + // values stay float64
		nnz*4 + // uint32 columns
		2*(n+1)*4 + // int32 row pointers
		sched
	if got := f.MemoryBytes(); got != compact {
		t.Fatalf("compact MemoryBytes = %d want %d", got, compact)
	}
	if 2*(compact-sched-nnz*8) != wide-sched-nnz*8 {
		t.Fatalf("compaction did not halve index bytes: wide=%d compact=%d", wide, compact)
	}
}

// iluBench is the shared fixture for BenchmarkILUApplyLevels: ILU(0) of
// I − 0.85·Ā on the stock RMAT bench graph (the matrix shape GMRES
// preconditioning sees), built on first benchmark use only.
var iluBench struct {
	once sync.Once
	a    *sparse.CSR
	src  []float64
	dst  []float64
}

func iluBenchSetup() {
	iluBench.once.Do(func() {
		g := gen.RMAT(gen.DefaultRMAT(16, 16, 1)) // 65_536 nodes, ~1M edges
		adj := g.Adjacency().RowNormalize().Transpose()
		iluBench.a = sparse.Identity(g.N()).AddScaled(adj, -0.85)
		rng := rand.New(rand.NewSource(7))
		iluBench.src = make([]float64, g.N())
		for i := range iluBench.src {
			iluBench.src[i] = rng.NormFloat64()
		}
		iluBench.dst = make([]float64, g.N())
	})
}

// packedApply reconstructs the pre-level-scheduling implementation — one
// packed CSR holding L's strict lower part and U, swept serially in row
// order with the j >= i branch in the inner loop — as the benchmark
// baseline the leveled Apply is measured against.
func packedApply(f *ILU) func(dst, src []float64) {
	n := f.n
	invL := make([]int, n)
	for k, i := range f.l.order {
		invL[int(i)] = k
	}
	invU := make([]int, n)
	for k, i := range f.u.order {
		invU[int(i)] = k
	}
	rowPtr := make([]int, n+1)
	diagPos := make([]int, n)
	col := make([]int, 0, f.NNZ())
	val := make([]float64, 0, f.NNZ())
	for i := 0; i < n; i++ {
		lo, hi := f.l.rowSpan(invL[i])
		for p := lo; p < hi; p++ {
			col = append(col, f.l.colAt(p))
			val = append(val, f.l.val[p])
		}
		diagPos[i] = len(col)
		lo, hi = f.u.rowSpan(invU[i])
		for p := lo; p < hi; p++ {
			col = append(col, f.u.colAt(p))
			val = append(val, f.u.val[p])
		}
		rowPtr[i+1] = len(col)
	}
	return func(dst, src []float64) {
		copy(dst, src)
		for i := 0; i < n; i++ {
			s := dst[i]
			for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
				j := col[p]
				if j >= i {
					break
				}
				s -= val[p] * dst[j]
			}
			dst[i] = s
		}
		for i := n - 1; i >= 0; i-- {
			s := dst[i]
			for p := diagPos[i] + 1; p < rowPtr[i+1]; p++ {
				s -= val[p] * dst[col[p]]
			}
			dst[i] = s / val[diagPos[i]]
		}
	}
}

// BenchmarkILUApplyLevels measures the preconditioner application on the
// stock RMAT bench matrix. The "baseline" case is the old packed serial
// implementation; the "leveled" cases run the level-ordered factors at
// increasing worker counts (GOMAXPROCS pinned to match; workers=1 is the
// serial sweep with no pool), with compact=true additionally narrowing the
// index arrays. Compare baseline against leveled/workers=N for the kernel
// win.
func BenchmarkILUApplyLevels(b *testing.B) {
	iluBenchSetup()
	f, err := FactorILU0(iluBench.a)
	if err != nil {
		b.Fatal(err)
	}
	baseline := packedApply(f)
	b.Run("baseline", func(b *testing.B) {
		b.SetBytes(int64(f.NNZ()) * 16)
		for i := 0; i < b.N; i++ {
			baseline(iluBench.dst, iluBench.src)
		}
	})

	widths := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		widths = append(widths, n)
	}
	for _, compact := range []bool{false, true} {
		for _, w := range widths {
			w, compact := w, compact
			b.Run(fmt.Sprintf("leveled/compact=%v/workers=%d", compact, w), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(w)
				defer runtime.GOMAXPROCS(prev)
				f, err := FactorILU0(iluBench.a)
				if err != nil {
					b.Fatal(err)
				}
				if compact {
					f.Compact()
				}
				if w > 1 {
					f.SetPool(par.NewPool(w))
				}
				bytesPerEntry := int64(16)
				if compact {
					bytesPerEntry = 12
				}
				b.SetBytes(int64(f.NNZ()) * bytesPerEntry)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Apply(iluBench.dst, iluBench.src)
				}
			})
		}
	}
}

// wideLevelMatrix builds a 2h×2h matrix whose ILU(0) factors have wide
// levels: the second half's rows depend only on the first half (one
// forward level of about h·d entries) and the first half's rows only on
// the second (one backward level of the same size), plus a sparse chain
// through the second half that adds narrow levels between them.
func wideLevelMatrix(h, d int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := 2 * h
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+rng.Float64())
		off := h // first-half rows point into the second half...
		if i >= h {
			off = 0 // ...and second-half rows into the first
		}
		for e := 0; e < d; e++ {
			coo.Add(i, off+rng.Intn(h), rng.NormFloat64()*0.3)
		}
		if i > h && i%50 == 0 {
			coo.Add(i, i-1, rng.NormFloat64()*0.3)
		}
	}
	return coo.ToCSR()
}

// widestLevel returns the largest per-level entry count of a factor.
func widestLevel(t *triFactor) int {
	var best int
	for l := 0; l < t.levels(); l++ {
		best = max(best, t.levelNNZ(l))
	}
	return best
}

// TestILUApplyBatchBitIdentical pins ApplyBatch against Apply under
// Float64bits equality for batch widths 1–6 (every group shape: four, a
// pair, a single RHS), serially and on a 2-worker pool, wide and compact,
// with dst distinct from and equal to src. The factors have levels above
// iluLevelMinNNZ, so the pool really partitions levels.
func TestILUApplyBatchBitIdentical(t *testing.T) {
	a := wideLevelMatrix(3000, 6, 8)
	ref, err := FactorILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NNZ() < iluParallelMinNNZ {
		t.Fatalf("test system too small: nnz=%d < %d", ref.NNZ(), iluParallelMinNNZ)
	}
	if wl, wu := widestLevel(&ref.l), widestLevel(&ref.u); wl < iluLevelMinNNZ || wu < iluLevelMinNNZ {
		t.Fatalf("widest levels %d/%d below iluLevelMinNNZ %d", wl, wu, iluLevelMinNNZ)
	}
	rng := rand.New(rand.NewSource(9))
	const maxK = 6
	srcs := make([][]float64, maxK)
	wants := make([][]float64, maxK)
	for k := range srcs {
		srcs[k] = make([]float64, ref.n)
		for i := range srcs[k] {
			srcs[k][i] = rng.NormFloat64()
		}
		wants[k] = make([]float64, ref.n)
		ref.Apply(wants[k], srcs[k])
	}
	for _, workers := range []int{1, 2} {
		for _, compact := range []bool{false, true} {
			f, err := FactorILU0(a)
			if err != nil {
				t.Fatal(err)
			}
			if compact {
				f.Compact()
			}
			if workers > 1 {
				f.SetPool(par.NewPool(workers))
			}
			for K := 1; K <= maxK; K++ {
				for _, alias := range []bool{false, true} {
					dst := make([][]float64, K)
					src := srcs[:K]
					if alias {
						src = make([][]float64, K)
					}
					for k := range dst {
						dst[k] = make([]float64, f.n)
						if alias {
							copy(dst[k], srcs[k])
							src[k] = dst[k]
						}
					}
					f.ApplyBatch(dst, src)
					for k := range dst {
						for i := range dst[k] {
							if math.Float64bits(dst[k][i]) != math.Float64bits(wants[k][i]) {
								t.Fatalf("workers=%d compact=%v K=%d alias=%v: rhs %d row %d = %v want %v",
									workers, compact, K, alias, k, i, dst[k][i], wants[k][i])
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkILUApplyBatch measures the RHS-interleaved sweep against the
// same number of one-RHS applies, serially on the stock RMAT bench matrix:
// compare batch/K=N with singles/K=N.
func BenchmarkILUApplyBatch(b *testing.B) {
	iluBenchSetup()
	f, err := FactorILU0(iluBench.a)
	if err != nil {
		b.Fatal(err)
	}
	f.Compact()
	for _, K := range []int{1, 2, 4} {
		src := make([][]float64, K)
		dst := make([][]float64, K)
		for k := range src {
			src[k] = iluBench.src
			dst[k] = make([]float64, f.n)
		}
		b.Run(fmt.Sprintf("singles/K=%d", K), func(b *testing.B) {
			b.SetBytes(int64(K) * int64(f.NNZ()) * 12)
			for i := 0; i < b.N; i++ {
				for k := range src {
					f.Apply(dst[k], src[k])
				}
			}
		})
		b.Run(fmt.Sprintf("batch/K=%d", K), func(b *testing.B) {
			b.SetBytes(int64(K) * int64(f.NNZ()) * 12)
			for i := 0; i < b.N; i++ {
				f.ApplyBatch(dst, src)
			}
		})
	}
}
