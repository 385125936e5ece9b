package sparse

// The row-gather kernels shared by the CSR and CSR32 layouts, generic over
// the column-index type (int for CSR, uint32 for CSR32). Both layouts
// compile to the exact same operation sequence — that is the bit-identity
// contract between them.
//
// gatherRow4 is the four-lane accumulation behind MulVec, AddMulVec and the
// per-RHS tail of MulVecBatch: four independent accumulator lanes walk the
// row in stride-4 steps (remainder entries fold into lane 0) and combine as
// (s0+s1)+(s2+s3). Breaking the single loop-carried FP-add chain is worth
// ~2× on long rows; the lane order is part of the layout contract.
func gatherRow4[C int | uint32](cols []C, vals []float64, x []float64) float64 {
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(cols); p += 4 {
		s0 += vals[p] * x[cols[p]]
		s1 += vals[p+1] * x[cols[p+1]]
		s2 += vals[p+2] * x[cols[p+2]]
		s3 += vals[p+3] * x[cols[p+3]]
	}
	for ; p < len(cols); p++ {
		s0 += vals[p] * x[cols[p]]
	}
	return (s0 + s1) + (s2 + s3)
}

// gatherRowSeq is the strictly sequential per-row gather reserved for the
// cached-transpose MulVecT path: the scatter loop it replaces applies each
// output element's contributions one at a time in ascending row order, and
// only the sequential gather reproduces that addition order bit for bit.
func gatherRowSeq[C int | uint32](cols []C, vals []float64, x []float64) float64 {
	var s float64
	for p := range cols {
		s += vals[p] * x[cols[p]]
	}
	return s
}

// mulVecBatchRows is the RHS-interleaved batch kernel over rows [rlo, rhi):
// one walk over a row's indices and values feeds a register-blocked pair of
// right-hand sides at once, so each load of cols[p]/vals[p] is amortized
// over two multiplies and — more importantly on the memory-bound gather —
// the interleaved accumulation chains give the core twice the independent
// misses to overlap. Two RHS is the widest block whose live state
// (8 accumulators + 4 values + 4 indices) still fits the FP register file;
// at four RHS the 16 accumulators spill to the stack every iteration and
// the reloads cost more than the sharing saves. The pair body is written
// out here rather than called per row: it is far over the inlining budget,
// and a call per RHS pair per row costs more than the interleaving saves on
// short rows. Per RHS the accumulation is exactly gatherRow4's: lane r
// collects entries p ≡ r (mod 4), the remainder folds into lane 0, and the
// combine is (s0+s1)+(s2+s3), so every output is bit-identical to the
// single-RHS kernel. A trailing odd RHS (so any batch of width 1) goes
// through gatherRow4 itself.
func mulVecBatchRows[P int | int32 | int64, C int | uint32](rowPtr []P, col []C, val []float64, dst, x [][]float64, rlo, rhi int) {
	for i := rlo; i < rhi; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols := col[lo:hi]
		vals := val[lo:hi]
		k := 0
		for ; k+2 <= len(x); k += 2 {
			x0, x1 := x[k], x[k+1]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			p := 0
			for ; p+4 <= len(cols); p += 4 {
				c0, c1, c2, c3 := cols[p], cols[p+1], cols[p+2], cols[p+3]
				v0, v1, v2, v3 := vals[p], vals[p+1], vals[p+2], vals[p+3]
				s00 += v0 * x0[c0]
				s01 += v1 * x0[c1]
				s02 += v2 * x0[c2]
				s03 += v3 * x0[c3]
				s10 += v0 * x1[c0]
				s11 += v1 * x1[c1]
				s12 += v2 * x1[c2]
				s13 += v3 * x1[c3]
			}
			for ; p < len(cols); p++ {
				c := cols[p]
				v := vals[p]
				s00 += v * x0[c]
				s10 += v * x1[c]
			}
			dst[k][i] = (s00 + s01) + (s02 + s03)
			dst[k+1][i] = (s10 + s11) + (s12 + s13)
		}
		for ; k < len(x); k++ {
			dst[k][i] = gatherRow4(cols, vals, x[k])
		}
	}
}
