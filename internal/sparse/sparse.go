// Package sparse implements the sparse-matrix substrate used throughout the
// BePI reproduction: a COO triplet builder, an immutable-shape CSR matrix
// with the kernels the solvers need (SpMV, transpose, sparse-sparse multiply,
// symmetric permutation, contiguous block extraction, row normalization),
// and helpers to bridge to dense matrices for tests and small exact solves.
//
// All matrices store float64 values. Column indices within each row are kept
// sorted and duplicate-free; every constructor establishes that invariant and
// every operation preserves it.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"bepi/internal/par"
)

// COO is a coordinate-format triplet accumulator used to build CSR matrices.
// Duplicate entries are allowed and are summed during conversion.
type COO struct {
	rows, cols int
	r, c       []int
	v          []float64
}

// NewCOO returns an empty COO accumulator with the given shape.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Rows returns the number of rows.
func (a *COO) Rows() int { return a.rows }

// Cols returns the number of columns.
func (a *COO) Cols() int { return a.cols }

// NNZ returns the number of accumulated entries (duplicates included).
func (a *COO) NNZ() int { return len(a.v) }

// Reserve grows internal capacity to hold at least n entries.
func (a *COO) Reserve(n int) {
	if cap(a.v) >= n {
		return
	}
	r := make([]int, len(a.r), n)
	copy(r, a.r)
	c := make([]int, len(a.c), n)
	copy(c, a.c)
	v := make([]float64, len(a.v), n)
	copy(v, a.v)
	a.r, a.c, a.v = r, c, v
}

// Add accumulates value v at position (i, j).
func (a *COO) Add(i, j int, v float64) {
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, a.rows, a.cols))
	}
	a.r = append(a.r, i)
	a.c = append(a.c, j)
	a.v = append(a.v, v)
}

// Append concatenates all entries of b, which must have the same shape,
// onto a. It is how per-worker COO shards built by a parallel kernel merge
// back into one accumulator.
func (a *COO) Append(b *COO) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("sparse: Append shape %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	a.r = append(a.r, b.r...)
	a.c = append(a.c, b.c...)
	a.v = append(a.v, b.v...)
}

// ToCSR converts the accumulated triplets into a CSR matrix, summing
// duplicates and dropping entries whose merged value is exactly zero is NOT
// done (explicit zeros are kept so patterns remain predictable).
func (a *COO) ToCSR() *CSR {
	n := len(a.v)
	// Count entries per row.
	rowPtr := make([]int, a.rows+1)
	for _, i := range a.r {
		rowPtr[i+1]++
	}
	for i := 0; i < a.rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	col := make([]int, n)
	val := make([]float64, n)
	next := make([]int, a.rows)
	copy(next, rowPtr[:a.rows])
	for k := 0; k < n; k++ {
		i := a.r[k]
		p := next[i]
		col[p] = a.c[k]
		val[p] = a.v[k]
		next[i]++
	}
	m := &CSR{rows: a.rows, cols: a.cols, rowPtr: rowPtr, col: col, val: val}
	m.sortRowsAndMerge()
	return m
}

// CSR is a compressed sparse row matrix. Column indices within each row are
// sorted in strictly increasing order.
type CSR struct {
	rows, cols int
	rowPtr     []int
	col        []int
	val        []float64

	// pool, when set, parallelizes the matvec kernels above
	// ParallelMinNNZ by row partition; see SetPool.
	pool *par.Pool
	// tr is the cached transpose built by CacheTranspose; MulVecT runs as
	// a (parallelizable) row-gather over it when present.
	tr *CSR
	// bounds is the row partition cached by FirstTouch for the attached
	// pool, so the apply kernels stop recomputing (and reallocating) it per
	// call and sticky pools see the same chunk→worker map every apply.
	// SetPool invalidates it. nil means compute per call.
	bounds []int
}

// ParallelMinNNZ is the stored-entry count below which the matvec kernels
// stay serial even with a pool attached: under it, chunk handoff costs more
// than the multiply.
const ParallelMinNNZ = 1 << 15

// SetPool attaches a parallel pool to the matrix and returns it. With a
// pool attached (and more than one worker), MulVec, MulVecT, AddMulVec and
// MulVecBatch partition rows across the pool once the matrix has at least
// ParallelMinNNZ stored entries. Each output element is still produced by
// the unchanged serial per-row loop, so results are bit-identical to the
// serial kernels at any worker count. A nil pool restores serial execution.
func (m *CSR) SetPool(p *par.Pool) *CSR {
	m.pool = p
	m.bounds = nil
	if m.tr != nil {
		m.tr.SetPool(p)
	}
	return m
}

// FirstTouch pins the matrix's parallel layout to the attached pool: it
// caches the nnz-balanced row partition so the apply kernels stop
// recomputing it on every call, and — when the pool is sticky — rewrites
// each partition's col/val segment from the worker that owns the chunk, so
// the backing pages are first-touched (hence, under first-touch NUMA
// policy, placed) local to the worker that will stream them on every
// future apply. Contents are identical afterwards; only page placement and
// partition caching change, so results are unaffected. Call after SetPool
// (which invalidates the cached partition); matrices below the parallel
// threshold are left untouched. Returns m.
func (m *CSR) FirstTouch() *CSR {
	m.bounds = nil
	if bounds, ok := m.parBounds(); ok {
		if m.pool.Sticky() {
			col := make([]int, len(m.col))
			val := make([]float64, len(m.val))
			m.pool.ForBounds(bounds, func(_, lo, hi int) {
				s, e := m.rowPtr[lo], m.rowPtr[hi]
				copy(col[s:e], m.col[s:e])
				copy(val[s:e], m.val[s:e])
			})
			m.col, m.val = col, val
		}
		m.bounds = bounds
	}
	if m.tr != nil {
		m.tr.FirstTouch()
	}
	return m
}

// Pool returns the attached pool (nil means serial).
func (m *CSR) Pool() *par.Pool { return m.pool }

// CacheTranspose builds, caches and returns Mᵀ. While cached, MulVecT runs
// as a row-gather over the transpose — the same additions in the same
// order as the scatter loop, so results stay bit-identical — which, unlike
// the scatter, can be row-partitioned across the pool. Call it once the
// pattern and values are final; mutating the matrix afterwards desyncs the
// cache.
func (m *CSR) CacheTranspose() *CSR {
	if m.tr == nil {
		m.tr = m.Transpose()
		m.tr.pool = m.pool
	}
	return m.tr
}

// parBounds reports whether the kernels should run parallel, and with
// which row partition: nnz-balanced chunk boundaries over the pool's
// workers.
func (m *CSR) parBounds() ([]int, bool) {
	if m.pool.Workers() <= 1 || len(m.val) < ParallelMinNNZ || m.rows < 2 {
		return nil, false
	}
	if m.bounds != nil {
		return m.bounds, true
	}
	return par.BoundsByPrefix(m.rowPtr, m.pool.Workers()), true
}

// batchParBounds is parBounds with the threshold scaled by the batch width:
// a K-RHS batch does K times the work per stored entry, so chunk handoff
// amortizes at 1/K of the nnz. The partition itself is unchanged — results
// stay bit-identical either way; only the serial/parallel cutover moves.
func (m *CSR) batchParBounds(width int) ([]int, bool) {
	if width < 1 {
		width = 1
	}
	if m.pool.Workers() <= 1 || len(m.val)*width < ParallelMinNNZ || m.rows < 2 {
		return nil, false
	}
	if m.bounds != nil {
		return m.bounds, true
	}
	return par.BoundsByPrefix(m.rowPtr, m.pool.Workers()), true
}

// NewCSR constructs a CSR matrix directly from raw slices. The slices are
// used as-is (not copied); rows are sorted and duplicates merged if needed.
// The input must pass Validate (monotone row pointers, in-range columns);
// malformed input panics rather than producing a matrix whose kernels read
// out of bounds.
func NewCSR(rows, cols int, rowPtr, col []int, val []float64) *CSR {
	if len(col) != len(val) {
		panic(fmt.Sprintf("sparse: col/val length %d/%d", len(col), len(val)))
	}
	if err := Validate(rows, cols, rowPtr, col); err != nil {
		panic(err)
	}
	m := &CSR{rows: rows, cols: cols, rowPtr: rowPtr, col: col, val: val}
	m.sortRowsAndMerge()
	return m
}

// Zero returns an empty rows×cols matrix.
func Zero(rows, cols int) *CSR {
	return &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	rowPtr := make([]int, n+1)
	col := make([]int, n)
	val := make([]float64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		col[i] = i
		val[i] = 1
	}
	return &CSR{rows: n, cols: n, rowPtr: rowPtr, col: col, val: val}
}

// Diagonal returns a square matrix with d on the diagonal.
func Diagonal(d []float64) *CSR {
	n := len(d)
	m := Identity(n)
	copy(m.val, d)
	return m
}

func (m *CSR) sortRowsAndMerge() {
	needSort := false
	for i := 0; i < m.rows && !needSort; i++ {
		for p := m.rowPtr[i] + 1; p < m.rowPtr[i+1]; p++ {
			if m.col[p] <= m.col[p-1] {
				needSort = true
				break
			}
		}
	}
	if !needSort {
		return
	}
	// Sort each row by column, then merge duplicates in place.
	type ent struct {
		c int
		v float64
	}
	out := 0
	newPtr := make([]int, m.rows+1)
	var buf []ent
	for i := 0; i < m.rows; i++ {
		start, end := m.rowPtr[i], m.rowPtr[i+1]
		buf = buf[:0]
		for p := start; p < end; p++ {
			buf = append(buf, ent{m.col[p], m.val[p]})
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a].c < buf[b].c })
		rowStart := out
		for _, e := range buf {
			if out > rowStart && m.col[out-1] == e.c {
				m.val[out-1] += e.v
			} else {
				m.col[out] = e.c
				m.val[out] = e.v
				out++
			}
		}
		newPtr[i+1] = out
	}
	m.rowPtr = newPtr
	m.col = m.col[:out]
	m.val = m.val[:out]
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// RowRange returns the half-open index range [start, end) into ColIdx/Values
// for row i.
func (m *CSR) RowRange(i int) (start, end int) { return m.rowPtr[i], m.rowPtr[i+1] }

// ColIdx exposes the column-index array (shared, do not mutate ordering).
func (m *CSR) ColIdx() []int { return m.col }

// Values exposes the value array (shared; mutating values is allowed as long
// as the pattern is unchanged).
func (m *CSR) Values() []float64 { return m.val }

// RowPtr exposes the row-pointer array (shared, read-only).
func (m *CSR) RowPtr() []int { return m.rowPtr }

// At returns the value at (i, j), or 0 if no entry is stored there.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	start, end := m.rowPtr[i], m.rowPtr[i+1]
	row := m.col[start:end]
	p := sort.SearchInts(row, j)
	if p < len(row) && row[p] == j {
		return m.val[start+p]
	}
	return 0
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	rp := make([]int, len(m.rowPtr))
	copy(rp, m.rowPtr)
	c := make([]int, len(m.col))
	copy(c, m.col)
	v := make([]float64, len(m.val))
	copy(v, m.val)
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: rp, col: c, val: v}
}

// MulVec computes dst = M·x. dst must have length Rows and x length Cols;
// dst and x must not alias. With a pool attached (SetPool) the rows are
// partitioned across workers; each dst element is still accumulated by the
// same serial loop, so the result is bit-identical to serial execution.
func (m *CSR) MulVec(dst, x []float64) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dims dst=%d x=%d want %d,%d", len(dst), len(x), m.rows, m.cols))
	}
	if bounds, ok := m.parBounds(); ok {
		m.pool.ForBounds(bounds, func(_, lo, hi int) { m.mulVecRange(dst, x, lo, hi) })
		return
	}
	m.mulVecRange(dst, x, 0, m.rows)
}

// mulVecRange is the gather loop behind MulVec and AddMulVec; the shared
// four-lane kernel (kernels.go) does the accumulation, so CSR and CSR32
// run the exact same sequence — which is what keeps the two layouts
// bit-identical.
func (m *CSR) mulVecRange(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := m.rowPtr[i], m.rowPtr[i+1]
		dst[i] = gatherRow4(m.col[start:end], m.val[start:end], x)
	}
}

// mulVecRangeSeq is the strictly sequential per-row gather. MulVecT's
// cached-transpose path uses it instead of the unrolled kernel: the
// scatter loop applies each output element's contributions one at a time
// in ascending row order, and only the sequential gather reproduces that
// addition order bit for bit.
func (m *CSR) mulVecRangeSeq(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := m.rowPtr[i], m.rowPtr[i+1]
		dst[i] = gatherRowSeq(m.col[start:end], m.val[start:end], x)
	}
}

// MulVecBatch computes dst[k] = M·x[k] for every right-hand side in the
// batch, traversing the matrix row by row so that each row's indices and
// values are read once from memory and reused across all K vectors. For the
// memory-bound SpMV this amortizes the matrix traffic over the batch, which
// is what makes multi-seed query batching pay off. Groups of four RHS run
// through the RHS-interleaved kernel — each loaded index and value feeds
// four independent accumulation chains, hiding gather latency behind work —
// while each RHS's per-row accumulation order is unchanged, so every output
// vector is bit-identical to MulVec on the same input. dst and x must hold
// equally many vectors with the same per-vector dimension rules as MulVec.
func (m *CSR) MulVecBatch(dst, x [][]float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("sparse: MulVecBatch got %d dst vectors for %d rhs", len(dst), len(x)))
	}
	for k := range x {
		if len(dst[k]) != m.rows || len(x[k]) != m.cols {
			panic(fmt.Sprintf("sparse: MulVecBatch dims dst=%d x=%d want %d,%d",
				len(dst[k]), len(x[k]), m.rows, m.cols))
		}
	}
	if bounds, ok := m.batchParBounds(len(x)); ok {
		m.pool.ForBounds(bounds, func(_, lo, hi int) { m.mulVecBatchRange(dst, x, lo, hi) })
		return
	}
	m.mulVecBatchRange(dst, x, 0, m.rows)
}

func (m *CSR) mulVecBatchRange(dst, x [][]float64, rlo, rhi int) {
	mulVecBatchRows(m.rowPtr, m.col, m.val, dst, x, rlo, rhi)
}

// MulVecT computes dst = Mᵀ·x. dst must have length Cols and x length
// Rows; they must not alias. Without a cached transpose it is the serial
// scatter loop; after CacheTranspose it becomes a gather over Mᵀ's rows —
// for each output j the contributions arrive in the same ascending-i order
// the scatter applies them, so the result is bit-identical — and the
// gather row-partitions across the pool like MulVec.
func (m *CSR) MulVecT(dst, x []float64) {
	if len(dst) != m.cols || len(x) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecT dims dst=%d x=%d want %d,%d", len(dst), len(x), m.cols, m.rows))
	}
	if m.tr != nil {
		tr := m.tr
		if bounds, ok := tr.parBounds(); ok {
			tr.pool.ForBounds(bounds, func(_, lo, hi int) { tr.mulVecRangeSeq(dst, x, lo, hi) })
			return
		}
		tr.mulVecRangeSeq(dst, x, 0, tr.rows)
		return
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			dst[m.col[p]] += m.val[p] * xi
		}
	}
}

// AddMulVec computes dst += alpha · M·x. Row-partitioned like MulVec when
// a pool is attached.
func (m *CSR) AddMulVec(dst []float64, alpha float64, x []float64) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic("sparse: AddMulVec dimension mismatch")
	}
	if bounds, ok := m.parBounds(); ok {
		m.pool.ForBounds(bounds, func(_, lo, hi int) { m.addMulVecRange(dst, alpha, x, lo, hi) })
		return
	}
	m.addMulVecRange(dst, alpha, x, 0, m.rows)
}

func (m *CSR) addMulVecRange(dst []float64, alpha float64, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := m.rowPtr[i], m.rowPtr[i+1]
		dst[i] += alpha * gatherRow4(m.col[start:end], m.val[start:end], x)
	}
}

// Transpose returns Mᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	nnz := m.NNZ()
	rowPtr := make([]int, m.cols+1)
	for _, j := range m.col {
		rowPtr[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		rowPtr[j+1] += rowPtr[j]
	}
	col := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, m.cols)
	copy(next, rowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			j := m.col[p]
			q := next[j]
			col[q] = i
			val[q] = m.val[p]
			next[j]++
		}
	}
	// Traversal by increasing row i keeps each output row sorted.
	return &CSR{rows: m.cols, cols: m.rows, rowPtr: rowPtr, col: col, val: val}
}

// Scale multiplies all stored values by alpha in place and returns m.
func (m *CSR) Scale(alpha float64) *CSR {
	for i := range m.val {
		m.val[i] *= alpha
	}
	return m
}

// Add returns M + B as a new matrix. Shapes must match.
func (m *CSR) Add(b *CSR) *CSR { return m.AddScaled(b, 1) }

// Sub returns M − B as a new matrix. Shapes must match.
func (m *CSR) Sub(b *CSR) *CSR { return m.AddScaled(b, -1) }

// AddScaled returns M + alpha·B as a new matrix. Shapes must match.
func (m *CSR) AddScaled(b *CSR, alpha float64) *CSR {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("sparse: AddScaled shape %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	rowPtr := make([]int, m.rows+1)
	col := make([]int, 0, m.NNZ()+b.NNZ())
	val := make([]float64, 0, m.NNZ()+b.NNZ())
	for i := 0; i < m.rows; i++ {
		pa, ea := m.rowPtr[i], m.rowPtr[i+1]
		pb, eb := b.rowPtr[i], b.rowPtr[i+1]
		for pa < ea || pb < eb {
			switch {
			case pb >= eb || (pa < ea && m.col[pa] < b.col[pb]):
				col = append(col, m.col[pa])
				val = append(val, m.val[pa])
				pa++
			case pa >= ea || b.col[pb] < m.col[pa]:
				col = append(col, b.col[pb])
				val = append(val, alpha*b.val[pb])
				pb++
			default:
				col = append(col, m.col[pa])
				val = append(val, m.val[pa]+alpha*b.val[pb])
				pa++
				pb++
			}
		}
		rowPtr[i+1] = len(col)
	}
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: rowPtr, col: col, val: val}
}

// Mul returns M·B as a new matrix using Gustavson's row-by-row algorithm.
func (m *CSR) Mul(b *CSR) *CSR {
	if m.cols != b.rows {
		panic(fmt.Sprintf("sparse: Mul inner dims %d vs %d", m.cols, b.rows))
	}
	rowPtr := make([]int, m.rows+1)
	var col []int
	var val []float64
	acc := make([]float64, b.cols)
	mark := make([]int, b.cols)
	for i := range mark {
		mark[i] = -1
	}
	rowCols := make([]int, 0, 64)
	for i := 0; i < m.rows; i++ {
		rowCols = rowCols[:0]
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			t := m.col[p]
			a := m.val[p]
			for q := b.rowPtr[t]; q < b.rowPtr[t+1]; q++ {
				j := b.col[q]
				if mark[j] != i {
					mark[j] = i
					acc[j] = 0
					rowCols = append(rowCols, j)
				}
				acc[j] += a * b.val[q]
			}
		}
		sort.Ints(rowCols)
		for _, j := range rowCols {
			col = append(col, j)
			val = append(val, acc[j])
		}
		rowPtr[i+1] = len(col)
	}
	return &CSR{rows: m.rows, cols: b.cols, rowPtr: rowPtr, col: col, val: val}
}

// DropZeros removes stored entries with |v| <= tol and returns m.
func (m *CSR) DropZeros(tol float64) *CSR {
	out := 0
	newPtr := make([]int, m.rows+1)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if math.Abs(m.val[p]) > tol {
				m.col[out] = m.col[p]
				m.val[out] = m.val[p]
				out++
			}
		}
		newPtr[i+1] = out
	}
	m.rowPtr = newPtr
	m.col = m.col[:out]
	m.val = m.val[:out]
	return m
}

// PermuteSym returns P·M·Pᵀ where the permutation maps old index i to new
// index perm[i]; i.e. result[perm[i], perm[j]] = M[i, j]. M must be square
// and perm a bijection on [0, n).
func (m *CSR) PermuteSym(perm []int) *CSR {
	if m.rows != m.cols {
		panic("sparse: PermuteSym requires a square matrix")
	}
	if len(perm) != m.rows {
		panic(fmt.Sprintf("sparse: perm length %d want %d", len(perm), m.rows))
	}
	n := m.rows
	nnz := m.NNZ()
	rowPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		rowPtr[perm[i]+1] = m.rowPtr[i+1] - m.rowPtr[i]
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	col := make([]int, nnz)
	val := make([]float64, nnz)
	for i := 0; i < n; i++ {
		q := rowPtr[perm[i]]
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			col[q] = perm[m.col[p]]
			val[q] = m.val[p]
			q++
		}
	}
	out := &CSR{rows: n, cols: n, rowPtr: rowPtr, col: col, val: val}
	out.sortRowsAndMerge()
	return out
}

// Block returns the dense-index submatrix M[r0:r1, c0:c1] as a new CSR
// matrix of shape (r1−r0)×(c1−c0). Intended for extracting the contiguous
// partitions H11, H12, ... after node reordering.
func (m *CSR) Block(r0, r1, c0, c1 int) *CSR {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("sparse: Block [%d:%d,%d:%d] out of range %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	rows := r1 - r0
	rowPtr := make([]int, rows+1)
	var col []int
	var val []float64
	for i := r0; i < r1; i++ {
		start, end := m.rowPtr[i], m.rowPtr[i+1]
		// Binary search the first column >= c0.
		lo := start + sort.SearchInts(m.col[start:end], c0)
		for p := lo; p < end && m.col[p] < c1; p++ {
			col = append(col, m.col[p]-c0)
			val = append(val, m.val[p])
		}
		rowPtr[i-r0+1] = len(col)
	}
	return &CSR{rows: rows, cols: c1 - c0, rowPtr: rowPtr, col: col, val: val}
}

// RowSums returns the vector of row sums.
func (m *CSR) RowSums() []float64 {
	s := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s[i] += m.val[p]
		}
	}
	return s
}

// RowNormalize divides each nonempty row by its sum in place and returns m.
// Rows whose sum is zero are left untouched (deadend rows).
func (m *CSR) RowNormalize() *CSR {
	for i := 0; i < m.rows; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.val[p]
		}
		if s == 0 {
			continue
		}
		inv := 1 / s
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			m.val[p] *= inv
		}
	}
	return m
}

// Diag returns the diagonal as a dense vector (square matrices only).
func (m *CSR) Diag() []float64 {
	if m.rows != m.cols {
		panic("sparse: Diag requires a square matrix")
	}
	d := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// MaxAbs returns the largest absolute stored value (0 for empty matrices).
func (m *CSR) MaxAbs() float64 {
	var mx float64
	for _, v := range m.val {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns sqrt(sum of squared entries).
func (m *CSR) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.val {
		s += v * v
	}
	return math.Sqrt(s)
}

// MemoryBytes reports the storage footprint of the matrix: 8 bytes per
// value, 8 per column index, 8 per row pointer. This is the quantity the
// paper reports as "memory space for preprocessed data".
func (m *CSR) MemoryBytes() int64 {
	return int64(len(m.val))*16 + int64(len(m.rowPtr))*8
}

// Equal reports whether the two matrices have identical shape, pattern and
// values.
func (m *CSR) Equal(b *CSR) bool {
	if m.rows != b.rows || m.cols != b.cols || m.NNZ() != b.NNZ() {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for p := range m.col {
		if m.col[p] != b.col[p] || m.val[p] != b.val[p] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether the matrices agree entrywise within tol,
// treating missing entries as zero.
func (m *CSR) AlmostEqual(b *CSR, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	d := m.Sub(b)
	return d.MaxAbs() <= tol
}

// String returns a short shape/nnz description.
func (m *CSR) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d}", m.rows, m.cols, m.NNZ())
}
