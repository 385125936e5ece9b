package bench

import (
	"fmt"
	"runtime"
	"time"

	"bepi/internal/core"
	"bepi/internal/lu"
	"bepi/internal/par"
	"bepi/internal/sparse"
)

// kernelReps returns how many times each micro-kernel is applied per
// measurement at the given suite size.
func kernelReps(s Size) int {
	switch s {
	case Full:
		return 200
	case Small:
		return 50
	default:
		return 20
	}
}

// timeKernel measures the average wall time of reps applications of f.
func timeKernel(reps int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(reps)
}

// Kernels is the beyond-paper kernel A/B experiment: per dataset it
// measures the two optimizations of the bandwidth-lean kernel layer in
// isolation — the compact CSR32 layout the engine serves from against wide
// CSR (memory and SpMV time of the Schur complement and its ILU(0)
// factors), and the level-scheduled parallel ILU(0) triangular sweeps
// against the serial ones — next to the end-to-end query time.
func Kernels(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	reps := kernelReps(cfg.Size)
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stream := sparse.StreamBandwidth()

	mem := &Table{
		Title:  "Kernel memory: wide CSR vs compact CSR32",
		Note:   "Schur complement plus its ILU(0) factors; values are float64 in both layouts, only index widths differ",
		Header: []string{"dataset", "index wide", "index compact", "saving"},
	}
	tim := &Table{
		Title: "Kernel timings: layout, level-scheduled ILU",
		Note: fmt.Sprintf("avg of %d applications; queries avg over %d seeds; ILU leveled uses %d workers; STREAM roof %s/s",
			reps, cfg.Seeds, workers, FmtBytes(int64(stream))),
		Header: []string{"dataset", "S·x wide", "S·x compact", "query", "ILU serial", "ILU leveled"},
	}
	bat := &Table{
		Title: "Batched S·x: row-outer baseline vs RHS-interleaved",
		Note: fmt.Sprintf("avg of %d serial applications on the wide layout; achieved counts matrix bytes + 8 B per in/out vector element per RHS; roof = STREAM triad %s/s",
			reps, FmtBytes(int64(stream))),
		Header: []string{"dataset", "width", "row-outer", "interleaved", "speedup", "achieved", "% of STREAM"},
	}

	datasets := Suite(cfg.Size)
	if len(datasets) > 3 {
		datasets = datasets[:3]
	}
	for di, d := range datasets {
		opts := core.Options{
			Variant: core.VariantFull, Tol: cfg.Tol, Parallelism: cfg.Parallelism,
			MemoryBudget: cfg.Budget.Memory, Deadline: cfg.Budget.Deadline,
		}
		e, err := core.Preprocess(d.G, opts)
		if err != nil {
			mem.AddRow(d.Name, classifyCell(err), "-", "-")
			tim.AddRow(d.Name, classifyCell(err), "-", "-", "-", "-")
			continue
		}

		// Memory A/B of the solve kernels' operands: S and its ILU(0)
		// factors, wide as factored and compacted as the engine stores them.
		s := e.Schur()
		c32 := sparse.Compact(s)
		ilu, err := lu.FactorILU0(s)
		if err != nil {
			return nil, fmt.Errorf("bench: kernels ILU on %s: %w", d.Name, err)
		}
		wideBytes := s.MemoryBytes() + ilu.MemoryBytes()
		compBytes := c32.MemoryBytes() + ilu.Compact().MemoryBytes()
		mem.AddRow(d.Name, FmtBytes(wideBytes), FmtBytes(compBytes),
			fmt.Sprintf("%.1f%%", 100*(1-float64(compBytes)/float64(wideBytes))))

		// Schur SpMV, wide vs compact layout.
		x := make([]float64, s.Cols())
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		y := make([]float64, s.Rows())
		spmvWide := timeKernel(reps, func() { s.MulVec(y, x) })
		spmvComp := timeKernel(reps, func() { c32.MulVec(y, x) })

		// Batched S·x A/B: the frozen row-outer kernel vs the shipped
		// RHS-interleaved MulVecBatch, serial on a pool-free clone so both
		// sides measure pure kernel time. Outputs are bit-identical; only
		// the traversal differs.
		sk := s.Clone()
		for _, width := range []int{4, 16} {
			xs := make([][]float64, width)
			ys := make([][]float64, width)
			for k := range xs {
				xs[k] = make([]float64, sk.Cols())
				for i := range xs[k] {
					xs[k][i] = float64((i+3*k)%7) - 3
				}
				ys[k] = make([]float64, sk.Rows())
			}
			tBase := timeKernel(reps, func() { rowOuterBatch(sk, ys, xs) })
			tInter := timeKernel(reps, func() { sk.MulVecBatch(ys, xs) })
			bytes := sk.MemoryBytes() + int64(width)*8*int64(sk.Rows()+sk.Cols())
			achieved := float64(bytes) / tInter.Seconds()
			pct := "-"
			if stream > 0 {
				pct = fmt.Sprintf("%.1f%%", 100*achieved/stream)
			}
			bat.AddRow(d.Name, fmt.Sprintf("%d", width),
				FmtDuration(tBase), FmtDuration(tInter),
				fmt.Sprintf("%.2fx", tBase.Seconds()/tInter.Seconds()),
				FmtBytes(int64(achieved))+"/s", pct)
		}

		// End-to-end query path on the engine.
		seeds := QuerySeeds(d.G, cfg.Seeds, int64(di))
		start := time.Now()
		for _, seed := range seeds {
			if _, _, err := e.Query(seed); err != nil {
				return nil, fmt.Errorf("bench: kernels query on %s: %w", d.Name, err)
			}
		}
		query := time.Since(start) / time.Duration(len(seeds))

		// ILU(0) triangular sweeps in the served compact layout: serial vs
		// level-scheduled parallel.
		src := make([]float64, s.Rows())
		for i := range src {
			src[i] = float64(i%5) - 2
		}
		dst := make([]float64, s.Rows())
		iluSerial := timeKernel(reps, func() { ilu.Apply(dst, src) })
		ilu.SetPool(par.NewPool(workers))
		iluLeveled := timeKernel(reps, func() { ilu.Apply(dst, src) })

		tim.AddRow(d.Name,
			FmtDuration(spmvWide), FmtDuration(spmvComp), FmtDuration(query),
			FmtDuration(iluSerial), FmtDuration(iluLeveled))
	}
	return []*Table{mem, tim, bat}, nil
}

// rowOuterBatch is the frozen pre-interleaving MulVecBatch kernel, kept as
// the benchmark baseline: rows outer, one RHS at a time through the
// four-lane loop. Bit-identical outputs to MulVecBatch — the interleaved
// kernel changed only the traversal, never any per-RHS accumulation order.
func rowOuterBatch(m *sparse.CSR, dst, x [][]float64) {
	rowPtr, col, val := m.RowPtr(), m.ColIdx(), m.Values()
	for i := 0; i < m.Rows(); i++ {
		cols := col[rowPtr[i]:rowPtr[i+1]]
		vals := val[rowPtr[i]:rowPtr[i+1]]
		for k := range x {
			xk := x[k]
			var s0, s1, s2, s3 float64
			p := 0
			for ; p+4 <= len(cols); p += 4 {
				s0 += vals[p] * xk[cols[p]]
				s1 += vals[p+1] * xk[cols[p+1]]
				s2 += vals[p+2] * xk[cols[p+2]]
				s3 += vals[p+3] * xk[cols[p+3]]
			}
			for ; p < len(cols); p++ {
				s0 += vals[p] * xk[cols[p]]
			}
			dst[k][i] = (s0 + s1) + (s2 + s3)
		}
	}
}
