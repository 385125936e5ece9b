package sparse

import (
	"fmt"
	"math"

	"bepi/internal/par"
)

// maxIndex32 is the exclusive upper bound on dimensions addressable by the
// compact uint32 column indices.
const maxIndex32 = int64(1) << 32

// CSR32 is the bandwidth-lean, immutable counterpart of CSR: column indices
// are uint32, row pointers are int32 when the entry count allows it (int64
// otherwise, chosen at build time), and values stay float64. Halving the
// index width halves the index bytes an SpMV streams per stored entry,
// which is the dominant cost of the memory-bound iteration kernels.
//
// The kernels perform the exact additions and multiplications of the CSR
// kernels in the same order, so their results are bit-identical to CSR at
// any worker count.
//
// CSR32 is immutable after construction: there is no mutating API, and the
// constructors reject (rather than repair) malformed input.
type CSR32 struct {
	rows, cols int
	// Exactly one of rowPtr32/rowPtr64 is non-nil.
	rowPtr32 []int32
	rowPtr64 []int64
	col      []uint32
	val      []float64

	// pool, when set, parallelizes the matvec kernels above ParallelMinNNZ
	// by nnz-balanced row partition, exactly like CSR.
	pool *par.Pool
	// tr is the cached transpose built by CacheTranspose; MulVecT runs as
	// a (parallelizable) row-gather over it when present.
	tr *CSR32
	// bounds is the row partition cached by FirstTouch, exactly like
	// CSR.bounds; SetPool invalidates it.
	bounds []int
}

// Compact converts a CSR matrix into the compact layout, sharing the
// float64 value slice (values are identical; only the index arrays shrink).
// It panics if the matrix dimensions exceed the uint32 index range. The
// conversion is lossless: ToCSR reproduces an Equal matrix, and every
// float64 kernel is bit-identical to its CSR counterpart.
func Compact(m *CSR) *CSR32 {
	if !FitsCompact(m.rows, m.cols) {
		panic(fmt.Sprintf("sparse: Compact %dx%d exceeds uint32 index range", m.rows, m.cols))
	}
	c := &CSR32{rows: m.rows, cols: m.cols, val: m.val, pool: m.pool}
	c.col = make([]uint32, len(m.col))
	for i, j := range m.col {
		c.col[i] = uint32(j)
	}
	// Row pointers: int32 when nnz fits, int64 otherwise. The last entry is
	// the largest, so checking it covers the whole array.
	if nnz := m.rowPtr[m.rows]; int64(nnz) <= math.MaxInt32 {
		c.rowPtr32 = make([]int32, len(m.rowPtr))
		for i, p := range m.rowPtr {
			c.rowPtr32[i] = int32(p)
		}
	} else {
		c.rowPtr64 = make([]int64, len(m.rowPtr))
		for i, p := range m.rowPtr {
			c.rowPtr64[i] = int64(p)
		}
	}
	if m.tr != nil {
		c.tr = Compact(m.tr)
	}
	return c
}

// FitsCompact reports whether a rows×cols matrix fits the uint32 index
// range of the compact layout.
func FitsCompact(rows, cols int) bool {
	return int64(rows) <= maxIndex32 && int64(cols) <= maxIndex32
}

// NewCSR32 constructs a compact matrix from raw slices with int32 row
// pointers. Unlike NewCSR it does not repair its input: the slices are used
// as-is and must already satisfy the CSR invariants (monotone row pointers,
// in-range and strictly increasing columns per row); violations panic.
func NewCSR32(rows, cols int, rowPtr []int32, col []uint32, val []float64) *CSR32 {
	if len(col) != len(val) {
		panic(fmt.Sprintf("sparse: col/val length %d/%d", len(col), len(val)))
	}
	if err := validateCompact(rows, cols, rowPtr, col); err != nil {
		panic(err)
	}
	return &CSR32{rows: rows, cols: cols, rowPtr32: rowPtr, col: col, val: val}
}

// NewCSR32Wide is NewCSR32 with int64 row pointers, for matrices whose
// entry count exceeds the int32 range.
func NewCSR32Wide(rows, cols int, rowPtr []int64, col []uint32, val []float64) *CSR32 {
	if len(col) != len(val) {
		panic(fmt.Sprintf("sparse: col/val length %d/%d", len(col), len(val)))
	}
	if err := validateCompact(rows, cols, rowPtr, col); err != nil {
		panic(err)
	}
	return &CSR32{rows: rows, cols: cols, rowPtr64: rowPtr, col: col, val: val}
}

// ToCSR widens the matrix back to the standard CSR layout. The round trip
// CSR -> Compact -> ToCSR is exact (Equal).
func (m *CSR32) ToCSR() *CSR {
	rowPtr := make([]int, m.rows+1)
	if m.rowPtr32 != nil {
		for i, p := range m.rowPtr32 {
			rowPtr[i] = int(p)
		}
	} else {
		for i, p := range m.rowPtr64 {
			rowPtr[i] = int(p)
		}
	}
	col := make([]int, len(m.col))
	for i, j := range m.col {
		col[i] = int(j)
	}
	val := make([]float64, len(m.val))
	copy(val, m.val)
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: rowPtr, col: col, val: val, pool: m.pool}
}

// Rows returns the number of rows.
func (m *CSR32) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR32) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR32) NNZ() int { return len(m.col) }

// SetPool attaches a parallel pool and returns m; semantics match
// CSR.SetPool (parallel above ParallelMinNNZ, bit-identical results).
func (m *CSR32) SetPool(p *par.Pool) *CSR32 {
	m.pool = p
	m.bounds = nil
	if m.tr != nil {
		m.tr.SetPool(p)
	}
	return m
}

// rowStart returns rowPtr[i] regardless of the pointer width in use.
func (m *CSR32) rowStart(i int) int {
	if m.rowPtr32 != nil {
		return int(m.rowPtr32[i])
	}
	return int(m.rowPtr64[i])
}

// FirstTouch caches the row partition and, on a sticky pool, rewrites each
// partition's index/value segments from its owning worker — semantics match
// CSR.FirstTouch. The rebuilt slices hold identical contents, so the
// layout's immutability contract (values and pattern never change) is kept.
func (m *CSR32) FirstTouch() *CSR32 {
	m.bounds = nil
	if bounds, ok := m.parBounds(); ok {
		if m.pool.Sticky() {
			col := make([]uint32, len(m.col))
			val := make([]float64, len(m.val))
			m.pool.ForBounds(bounds, func(_, lo, hi int) {
				s, e := m.rowStart(lo), m.rowStart(hi)
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
func (m *CSR32) Pool() *par.Pool { return m.pool }

// CacheTranspose builds, caches and returns Mᵀ in compact form. While
// cached, MulVecT runs as a row-gather over the transpose, which
// row-partitions across the pool; the gather applies each output element's
// contributions in the same ascending-row order as the serial scatter, so
// results stay bit-identical.
func (m *CSR32) CacheTranspose() *CSR32 {
	if m.tr == nil {
		// Transpose once through the wide layout; this runs once per
		// matrix lifetime, outside any query path.
		m.tr = Compact(m.ToCSR().Transpose())
		m.tr.pool = m.pool
	}
	return m.tr
}

// parBounds mirrors CSR.parBounds: nnz-balanced row chunks over the pool's
// workers when parallel execution pays off.
func (m *CSR32) parBounds() ([]int, bool) {
	if m.pool.Workers() <= 1 || len(m.col) < ParallelMinNNZ || m.rows < 2 {
		return nil, false
	}
	if m.bounds != nil {
		return m.bounds, true
	}
	if m.rowPtr32 != nil {
		return par.BoundsByPrefixOf(m.rowPtr32, m.pool.Workers()), true
	}
	return par.BoundsByPrefixOf(m.rowPtr64, m.pool.Workers()), true
}

// batchParBounds mirrors CSR.batchParBounds: the parallel threshold scales
// with the batch width, since a K-RHS batch does K× the work per entry.
func (m *CSR32) batchParBounds(width int) ([]int, bool) {
	if width < 1 {
		width = 1
	}
	if m.pool.Workers() <= 1 || len(m.col)*width < ParallelMinNNZ || m.rows < 2 {
		return nil, false
	}
	if m.bounds != nil {
		return m.bounds, true
	}
	if m.rowPtr32 != nil {
		return par.BoundsByPrefixOf(m.rowPtr32, m.pool.Workers()), true
	}
	return par.BoundsByPrefixOf(m.rowPtr64, m.pool.Workers()), true
}

// The range kernels are generic over the row-pointer width so both layouts
// share one loop body each, delegating the per-row accumulation to the
// shared gather kernels (kernels.go), which perform the exact CSR operation
// sequence.

func mulVecRange32[P int32 | int64](rowPtr []P, col []uint32, val []float64, dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		dst[i] = gatherRow4(col[start:end], val[start:end], x)
	}
}

// mulVecRangeSeq32 is the sequential per-row gather reserved for the
// cached-transpose MulVecT path, matching the scatter's addition order.
func mulVecRangeSeq32[P int32 | int64](rowPtr []P, col []uint32, val []float64, dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		dst[i] = gatherRowSeq(col[start:end], val[start:end], x)
	}
}

func mulVecTScatter32[P int32 | int64](rows int, rowPtr []P, col []uint32, val []float64, dst, x []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			dst[col[p]] += val[p] * xi
		}
	}
}

func (m *CSR32) mulVecRange(dst, x []float64, lo, hi int) {
	if m.rowPtr32 != nil {
		mulVecRange32(m.rowPtr32, m.col, m.val, dst, x, lo, hi)
	} else {
		mulVecRange32(m.rowPtr64, m.col, m.val, dst, x, lo, hi)
	}
}

func (m *CSR32) mulVecRangeSeq(dst, x []float64, lo, hi int) {
	if m.rowPtr32 != nil {
		mulVecRangeSeq32(m.rowPtr32, m.col, m.val, dst, x, lo, hi)
	} else {
		mulVecRangeSeq32(m.rowPtr64, m.col, m.val, dst, x, lo, hi)
	}
}

func (m *CSR32) mulVecBatchRange(dst, x [][]float64, rlo, rhi int) {
	if m.rowPtr32 != nil {
		mulVecBatchRows(m.rowPtr32, m.col, m.val, dst, x, rlo, rhi)
	} else {
		mulVecBatchRows(m.rowPtr64, m.col, m.val, dst, x, rlo, rhi)
	}
}

// MulVec computes dst = M·x with the same dimension rules, pool behavior
// and bit-identical results as CSR.MulVec.
func (m *CSR32) MulVec(dst, x []float64) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dims dst=%d x=%d want %d,%d", len(dst), len(x), m.rows, m.cols))
	}
	if bounds, ok := m.parBounds(); ok {
		m.pool.ForBounds(bounds, func(_, lo, hi int) { m.mulVecRange(dst, x, lo, hi) })
		return
	}
	m.mulVecRange(dst, x, 0, m.rows)
}

// MulVecBatch computes dst[k] = M·x[k] for every right-hand side, row-outer
// and RHS-interleaved like CSR.MulVecBatch: the compact index arrays are
// streamed once per batch, with groups of four RHS sharing each loaded
// entry, and every output bit-identical to MulVec per RHS.
func (m *CSR32) MulVecBatch(dst, x [][]float64) {
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

// MulVecT computes dst = Mᵀ·x: the serial scatter loop without a cached
// transpose, a pool-partitioned row gather over it after CacheTranspose.
func (m *CSR32) MulVecT(dst, x []float64) {
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
	if m.rowPtr32 != nil {
		mulVecTScatter32(m.rows, m.rowPtr32, m.col, m.val, dst, x)
	} else {
		mulVecTScatter32(m.rows, m.rowPtr64, m.col, m.val, dst, x)
	}
}

// MemoryBytes reports the storage footprint: 8 bytes per value, 4 per
// column index, and 4 or 8 per row pointer as chosen at build time. Compare
// CSR.MemoryBytes' 16 bytes per entry + 8 per row.
func (m *CSR32) MemoryBytes() int64 {
	b := int64(len(m.col)) * 12
	if m.rowPtr32 != nil {
		b += int64(len(m.rowPtr32)) * 4
	} else {
		b += int64(len(m.rowPtr64)) * 8
	}
	return b
}

// String returns a short shape/nnz description.
func (m *CSR32) String() string {
	return fmt.Sprintf("CSR32{%dx%d, nnz=%d}", m.rows, m.cols, m.NNZ())
}
