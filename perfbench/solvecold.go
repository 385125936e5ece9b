package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/sparse"
)

// Traced solve-cold runs a fixed number of queries, so the exact counters
// (iterations per query) repeat exactly on one seed.
const (
	coldTracedQueries  = 256
	coldOverheadPrefix = 64 // of those, first run untraced for the overhead ratio
	coldOracleSamples  = 48 // answers the oracle checks: every coldOracleEvery-th
	coldOracleEvery    = 16
)

// runSolveCold is the solve-cold workload: one client in a closed loop
// issuing full-vector RWR queries (Engine.Query) on distinct, uniformly
// drawn seeds, straight on the engine: no cache, no executor.
func runSolveCold(cfg config) (*report, error) {
	in, err := makeInputs(cfg.size, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var eng *bepi.Engine
	secs, err := timeBuilds(func() (err error) { eng, err = bepi.New(in.g); return err })
	if err != nil {
		return nil, fmt.Errorf("preprocessing: %w", err)
	}
	setSetup(rep, secs, eng.MemoryBytes())
	rng := rand.New(rand.NewSource(cfg.seed))
	seeds := rng.Perm(in.n) // distinct seeds; the loop wraps if it outruns them
	orc := newOracle(in.n, in.edges)
	if cfg.trace {
		err = traceSolveCold(cfg, rep, in, eng, seeds, orc)
		return rep, err
	}

	// Warm-up queries are not measured.
	for i := 0; i < 4; i++ {
		if _, err := eng.Query(seeds[len(seeds)-1-i]); err != nil {
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
	}
	type sample struct {
		seed   int
		scores []float64
	}
	var samples []sample
	var lat []float64
	deadline := time.Now().Add(cfg.duration())
	start := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		seed := seeds[i%len(seeds)]
		t0 := time.Now()
		r, err := eng.Query(seed)
		d := time.Since(t0)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.notef("query seed %d: %v", seed, err)
			continue
		}
		lat = append(lat, ms(d))
		if i%coldOracleEvery == 0 && len(samples) < coldOracleSamples {
			samples = append(samples, sample{seed, r})
		}
	}
	elapsed := time.Since(start)
	for _, s := range samples {
		if err := orc.checkScores(s.seed, s.scores); err != nil {
			rep.reject(err)
		}
	}
	rep.set("latency_p50_ms", quantile(lat, 0.5))
	rep.set("throughput_qps", float64(len(lat))/elapsed.Seconds())
	rep.alias("query_p50_ms", rep.values["latency_p50_ms"], "ms", "reported as latency_p50_ms")
	rep.alias("query_p99_ms", quantile(lat, 0.99), "ms", "printed only")
	rep.alias("query_qps", rep.values["throughput_qps"], "1/s", "reported as throughput_qps")
	rep.notef("solve-cold: %d queries in %.2fs, %d answers checked by the oracle", len(lat), elapsed.Seconds(), len(samples))
	return rep, nil
}

// traceSolveCold runs the traced variant: the preprocessing layers, then a
// fixed query sequence through core.Engine.Query with the solver's
// iteration and kernel hooks installed, so every query yields its stage
// times and every Schur-operator and ILU application a span.
func traceSolveCold(cfg config, rep *report, in *inputs, eng *bepi.Engine, seeds []int, orc *oracle) error {
	rec := newRecorder()
	ce := eng.Internal()
	if err := tracePreprocess(rec, rep, in.g, ce.Options()); err != nil {
		return err
	}
	nq := min(coldTracedQueries, len(seeds))
	pre := min(coldOverheadPrefix, nq)

	// Untraced pass over the prefix, for the overhead ratio.
	var plain time.Duration
	for i := 0; i < pre; i++ {
		t0 := time.Now()
		if _, err := eng.Query(seeds[i]); err != nil {
			return fmt.Errorf("query seed %d: %w", seeds[i], err)
		}
		plain += time.Since(t0)
	}

	var iters atomic.Int64
	var curSolve atomic.Int64 // span id of the running solve
	var curReq atomic.Int64
	var schurBytes, precondBytes atomic.Int64
	ce.SetIterHook(func(int, float64) { iters.Add(1) })
	ce.SetKernelHook(func(kernel string, seconds float64, bytes int64) {
		end := time.Now()
		name := "sparse.schur_spmv"
		if kernel == core.KernelPrecond {
			name = "lu.ilu_apply"
			precondBytes.Store(bytes)
		} else {
			schurBytes.Store(bytes)
		}
		rec.add(curSolve.Load(), curReq.Load(), name, end.Add(-time.Duration(seconds*1e9)), end)
	})
	defer ce.SetIterHook(nil)
	defer ce.SetKernelHook(nil)

	var traced time.Duration
	var st struct{ permute, forward, solve, back time.Duration }
	for i := 0; i < nq; i++ {
		seed := seeds[i]
		req := int64(i + 1)
		root, solveID := rec.id(), rec.id()
		curReq.Store(req)
		curSolve.Store(solveID)
		t0 := time.Now()
		r, qs, err := ce.Query(seed)
		t1 := time.Now()
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.notef("query seed %d: %v", seed, err)
			continue
		}
		if i < pre {
			traced += t1.Sub(t0)
		}
		// The stages run back to back inside the query.
		s := qs.Stages
		p0 := t0.Add(s.Permute)
		f0 := p0.Add(s.Forward)
		s0 := f0.Add(s.Solve)
		rec.add(root, req, "core.permute", t0, p0)
		rec.add(root, req, "core.forward", p0, f0)
		rec.record(solveID, root, req, "core.solve", f0, s0)
		rec.add(root, req, "core.back", s0, s0.Add(s.Back))
		rec.record(root, 0, req, "core.query", t0, t1)
		st.permute += s.Permute
		st.forward += s.Forward
		st.solve += s.Solve
		st.back += s.Back
		if i%max(1, nq/8) == 0 {
			if err := orc.checkScores(seed, r); err != nil {
				rep.reject(err)
			}
		}
	}
	done := float64(rep.attempted - rep.failed)
	lt := rec.selfTimes()
	roof := sparse.StreamBandwidth()
	rep.set("sparse.stream_gbps", roof/1e9)
	rep.set("solver.iters_per_query", float64(iters.Load())/done)
	rep.set("solver.gmres_self_ms", meanSelfMS(lt, "core.solve"))
	rep.set("core.permute_ms", ms(st.permute)/done)
	rep.set("core.forward_ms", ms(st.forward)/done)
	rep.set("core.solve_ms", ms(st.solve)/done)
	rep.set("core.back_ms", ms(st.back)/done)
	setKernel(rep, "sparse.schur_spmv_us", "sparse.schur_spmv_bytes", "sparse.spmv_gbps", "sparse.spmv_stream_share",
		meanMS(lt, "sparse.schur_spmv"), schurBytes.Load(), roof)
	setKernel(rep, "lu.ilu_apply_us", "lu.ilu_apply_bytes", "lu.ilu_gbps", "lu.ilu_stream_share",
		meanMS(lt, "lu.ilu_apply"), precondBytes.Load(), roof)
	rep.set("obs.trace_overhead_ratio", traced.Seconds()/plain.Seconds())
	rep.notef("solve-cold traced: %d queries, %d spans", nq, len(rec.spans))
	return rec.writeTo(cfg.spans)
}

// setKernel reports one kernel's mean time per application, the bytes one
// application moves (computed from the stored matrix and vector sizes),
// the achieved rate and its share of the measured STREAM roof.
func setKernel(rep *report, usName, bytesName, gbpsName, shareName string, meanMS float64, bytes int64, roof float64) {
	rep.set(usName, 1e3*meanMS)
	rep.set(bytesName, float64(bytes))
	if meanMS <= 0 {
		return
	}
	bps := float64(bytes) / (meanMS / 1e3)
	rep.set(gbpsName, bps/1e9)
	if roof > 0 {
		rep.set(shareName, bps/roof)
	}
}
