package main

import (
	"fmt"
	"runtime"
	"time"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/lu"
	"bepi/internal/par"
	"bepi/internal/reorder"
)

// setupReps is how many times a run builds its index; single builds vary
// by about ±10%, so the run reports the median.
const setupReps = 7

// timeBuilds runs build setupReps times from the same in-memory graph and
// returns each build's wall time. The heap is collected before every build
// so each starts from the same state. The last build's result is kept.
func timeBuilds(build func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// setSetup reports the set-up metrics: the median build time and the
// index footprint.
func setSetup(rep *report, secs []float64, indexBytes int64) {
	rep.set("setup_s", quantile(secs, 0.5))
	rep.set("index_bytes", float64(indexBytes))
}

// prepReps is how many times the traced run replays the preprocessing
// pipeline layer by layer.
const prepReps = 3

// tracePreprocess replays the preprocessing pipeline by calling each
// layer's public function in the order core.Preprocess does, timing every
// call as a span, and reports the layers' mean times and exact work
// counts.
func tracePreprocess(rec *recorder, rep *report, g *bepi.Graph, opts core.Options) error {
	gi := g.Internal()
	pool := par.Shared()
	for i := 0; i < prepReps; i++ {
		runtime.GC()
		req := int64(-1 - i)
		root := rec.id()
		t0 := time.Now()
		ord := reorder.HubAndSpoke(gi, opts.HubRatio)
		t1 := time.Now()
		rec.add(root, req, "reorder.slashburn", t0, t1)

		h := core.BuildH(gi, ord.Perm, opts.C)
		n1, l := ord.N1, ord.N1+ord.N2
		h11 := h.Block(0, n1, 0, n1)
		h12 := h.Block(0, n1, n1, l)
		h21 := h.Block(n1, l, 0, n1)
		h22 := h.Block(n1, l, n1, l)
		t2 := time.Now()
		rec.add(root, req, "core.build_h", t1, t2)

		h11LU, err := lu.FactorBlockDiagPool(h11, ord.Blocks, pool)
		if err != nil {
			return fmt.Errorf("factoring H11: %w", err)
		}
		t3 := time.Now()
		rec.add(root, req, "lu.h11_factor", t2, t3)

		schur := core.SchurComplementT(h22, h21.Transpose(), h12.Transpose(), h11LU, pool)
		t4 := time.Now()
		rec.add(root, req, "core.schur", t3, t4)

		ilu, err := lu.FactorILU0(schur)
		if err != nil {
			return fmt.Errorf("ILU(0) of S: %w", err)
		}
		t5 := time.Now()
		rec.add(root, req, "lu.ilu_factor", t4, t5)
		rec.record(root, 0, req, "preprocess", t0, t5)

		rep.set("reorder.hubs", float64(ord.N2))
		rep.set("reorder.blocks", float64(len(ord.Blocks)))
		rep.set("core.schur_nnz", float64(schur.NNZ()))
		rep.set("lu.ilu_nnz", float64(ilu.NNZ()))
	}
	lt := rec.selfTimes()
	rep.set("reorder.slashburn_ms", meanMS(lt, "reorder.slashburn"))
	rep.set("core.build_h_ms", meanMS(lt, "core.build_h"))
	rep.set("lu.h11_factor_ms", meanMS(lt, "lu.h11_factor"))
	rep.set("core.schur_ms", meanMS(lt, "core.schur"))
	rep.set("lu.ilu_factor_ms", meanMS(lt, "lu.ilu_factor"))
	return nil
}
