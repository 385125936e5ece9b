package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/graph"
)

const (
	updateTopK = 10
	// updateBatchesPerSecond sizes the fixed batch sequence: a run applies
	// this many batches per second of --seconds, which on a 2-core host
	// takes about --seconds. The sequence length is fixed for a setting,
	// not cut by time, because flush cost grows along it (hub deltas add
	// Woodbury rank until a full rebuild resets it): runs compare only
	// over the same batches.
	updateBatchesPerSecond = 8
	// One insertion in updateUniformInserts joins two uniformly drawn
	// nodes; the rest attach preferentially (source by out-degree,
	// destination by in-degree, as social graphs grow). Uniform edges often
	// leave a spoke block or give a deadend its first out-edge, which only a
	// full rebuild absorbs; so about a fifth of flushes are full rebuilds,
	// and each resets the Woodbury rank the preferential hub deltas build up.
	updateUniformInserts = 3
	// updateTimeCap stops a run that has grown too slow to finish the
	// sequence within the benchmark's time limit.
	updateTimeCap = 140 * time.Second
	// updateOverheadBatches is the prefix of the sequence a traced run
	// first applies untraced, as the baseline of its tracing overhead.
	updateOverheadBatches = 16
)

// updateCheckpoints are the batch indices after which the writer keeps the
// serving engine and its edge set for the oracle: spread geometrically so
// both early and late generations are checked, and bounded in memory.
var updateCheckpoints = map[int]bool{1: true, 3: true, 7: true, 15: true, 31: true, 63: true, 127: true, 255: true}

// edgeSet is the writer's own record of the graph's edges, independent of
// the program: a slice for uniform picks plus a position index.
type edgeSet struct {
	list []bepi.Edge
	pos  map[bepi.Edge]int
}

func newEdgeSet(edges []bepi.Edge) *edgeSet {
	s := &edgeSet{list: append([]bepi.Edge(nil), edges...), pos: make(map[bepi.Edge]int, len(edges))}
	for i, e := range s.list {
		s.pos[e] = i
	}
	return s
}

func (s *edgeSet) has(e bepi.Edge) bool { _, ok := s.pos[e]; return ok }

func (s *edgeSet) add(e bepi.Edge) {
	s.pos[e] = len(s.list)
	s.list = append(s.list, e)
}

func (s *edgeSet) remove(e bepi.Edge) {
	i := s.pos[e]
	last := s.list[len(s.list)-1]
	s.list[i], s.pos[last] = last, i
	s.list = s.list[:len(s.list)-1]
	delete(s.pos, e)
}

// op is one update: insert or delete an edge.
type op struct {
	e      bepi.Edge
	insert bool
}

// nextBatch draws the next batch from rng: 1–4 ops, alternating deletions
// of existing edges and insertions of absent ones from a random start, so
// half of all ops are each. An edge appears at most once per batch, so
// every op is a real change and no batch is a no-op.
func nextBatch(rng *rand.Rand, n int, set *edgeSet) []op {
	k := 1 + rng.Intn(4)
	parity := rng.Intn(2)
	touched := map[bepi.Edge]bool{}
	var ops []op
	for j := 0; j < k; j++ {
		if (j+parity)%2 == 0 {
			for {
				e := set.list[rng.Intn(len(set.list))]
				if !touched[e] {
					touched[e] = true
					ops = append(ops, op{e: e})
					break
				}
			}
			continue
		}
		uniform := rng.Intn(updateUniformInserts) == 0
		for {
			e := bepi.Edge{Src: set.list[rng.Intn(len(set.list))].Src, Dst: set.list[rng.Intn(len(set.list))].Dst}
			if uniform {
				e = bepi.Edge{Src: rng.Intn(n), Dst: rng.Intn(n)}
			}
			if e.Src != e.Dst && !set.has(e) && !touched[e] {
				touched[e] = true
				ops = append(ops, op{e: e, insert: true})
				break
			}
		}
	}
	return ops
}

// checkpoint is a generation kept for the oracle.
type checkpoint struct {
	eng   *bepi.Engine
	edges []bepi.Edge
	seed  int
}

// runUpdateStream is the update-stream workload: one writer applies a
// seeded sequence of small update batches to a Dynamic index and flushes
// each (StartFlush, then Wait), while one reader issues top-10 queries on
// the same Dynamic in a closed loop.
func runUpdateStream(cfg config) (*report, error) {
	in, err := makeInputs(cfg.size, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var d *bepi.Dynamic
	secs, err := timeBuilds(func() (err error) { d, err = bepi.NewDynamic(in.g); return err })
	if err != nil {
		return nil, fmt.Errorf("preprocessing: %w", err)
	}
	setSetup(rep, secs, d.Engine().MemoryBytes())
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		if err := tracePreprocess(rec, rep, in.g, d.Engine().Internal().Options()); err != nil {
			return nil, err
		}
	}

	batches := max(4, int(updateBatchesPerSecond*cfg.seconds))
	var plain *writerResult
	if cfg.trace {
		// The untraced baseline of the tracing overhead: the same first
		// batches on an index of their own, with the reader running.
		if plain, _, err = runStream(cfg, in, d, nil, min(batches, updateOverheadBatches), rep); err != nil {
			return nil, err
		}
		if d, err = bepi.NewDynamic(in.g); err != nil {
			return nil, fmt.Errorf("preprocessing: %w", err)
		}
	}
	w, readLat, err := runStream(cfg, in, d, rec, batches, rep)
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		rep.set("dynamic.read_p50_ms", quantile(readLat, 0.5))
		rep.set("dynamic.read_p99_ms", quantile(readLat, 0.99))
		rep.set("dynamic.mode_full", float64(w.modes[bepi.RebuildModeFull]))
		rep.set("dynamic.mode_delta_spoke", float64(w.modes[bepi.RebuildModeDeltaSpoke]))
		rep.set("dynamic.mode_delta_hub", float64(w.modes[bepi.RebuildModeDeltaHub]))
		lt := rec.selfTimes()
		rep.set("graph.patch_ms", meanMS(lt, "graph.patch"))
		rep.set("core.apply_delta_ms", meanMS(lt, "core.apply_delta"))
		rep.set("core.delta_affected_cols", float64(w.affectedCols))
		rep.set("core.delta_rank", float64(w.maxRank))
		last := len(plain.batchEnd) - 1
		rep.set("obs.trace_overhead_ratio", w.batchEnd[last].Seconds()/plain.batchEnd[last].Seconds())
		return rep, rec.writeTo(cfg.spans)
	}
	rep.set("latency_p50_ms", quantile(w.flushMS, 0.5))
	rep.set("throughput_qps", float64(len(readLat))/w.elapsed.Seconds())
	rep.alias("flush_p50_ms", rep.values["latency_p50_ms"], "ms", "reported as latency_p50_ms")
	rep.alias("flush_p90_ms", quantile(w.flushMS, 0.9), "ms", "printed only")
	rep.alias("query_p50_ms", quantile(readLat, 0.5), "ms", "reader; dynamic.read_p50_ms when traced")
	rep.alias("query_p99_ms", quantile(readLat, 0.99), "ms", "reader; dynamic.read_p99_ms when traced")
	return rep, nil
}

// runStream applies the first batches of the run's fixed sequence to d on
// the writer while the reader queries d, counts both sides' operations
// into rep, and has the oracle check the generations the writer kept. It
// returns the writer's result and the reader's answered-query latencies.
func runStream(cfg config, in *inputs, d *bepi.Dynamic, rec *recorder, batches int, rep *report) (*writerResult, []float64, error) {
	var stop atomic.Bool
	var readLat []float64
	var reads, readFails int64
	var readErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed + 2))
		for !stop.Load() {
			seed := rng.Intn(in.n)
			t0 := time.Now()
			top, err := d.TopK(seed, updateTopK)
			l := ms(time.Since(t0))
			reads++
			if err == nil {
				err = checkRanking(seed, updateTopK, in.n, top)
			}
			if err != nil {
				readFails++
				readErr = err
				continue
			}
			readLat = append(readLat, l)
		}
	}()

	w, werr := runWriter(cfg, in, d, rec, batches)
	stop.Store(true)
	wg.Wait()

	rep.attempted += reads + int64(len(w.flushMS)) + w.flushFails
	rep.failed += readFails + w.flushFails
	if readErr != nil {
		rep.notef("reader: %d failed answers, last: %v", readFails, readErr)
	}
	if werr != nil {
		return nil, nil, werr
	}
	for _, cp := range w.checkpoints {
		r, err := cp.eng.Query(cp.seed)
		if err == nil {
			err = newOracle(in.n, cp.edges).checkScores(cp.seed, r)
		}
		if err != nil {
			rep.reject(err)
		}
	}
	what := "update-stream"
	if rec != nil {
		what += " traced"
	}
	rep.notef("%s: %d flushes (full %d, delta-spoke %d, delta-hub %d) and %d reads in %.2fs, %d generations checked by the oracle",
		what, len(w.flushMS), w.modes[bepi.RebuildModeFull], w.modes[bepi.RebuildModeDeltaSpoke], w.modes[bepi.RebuildModeDeltaHub],
		reads, w.elapsed.Seconds(), len(w.checkpoints))
	return w, readLat, nil
}

// writerResult is what the writer measured.
type writerResult struct {
	flushMS      []float64
	flushFails   int64
	modes        map[bepi.RebuildMode]int
	checkpoints  []checkpoint
	affectedCols int
	maxRank      int
	batchEnd     []time.Duration // writer time from the start to the end of each batch's flush
	elapsed      time.Duration
}

// runWriter applies the first batches of the run's fixed sequence.
// Traced, every batch is first replayed through graph's edge-delta patcher
// and core.Engine.ApplyDelta on the serving engine, whose DeltaStats give
// the delta layers' work.
func runWriter(cfg config, in *inputs, d *bepi.Dynamic, rec *recorder, batches int) (*writerResult, error) {
	w := &writerResult{modes: map[bepi.RebuildMode]int{}}
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	set := newEdgeSet(in.edges)
	gCur := in.g.Internal()
	start := time.Now()
	defer func() { w.elapsed = time.Since(start) }()
	for b := 0; b < batches; b++ {
		if time.Since(start) > updateTimeCap {
			return w, fmt.Errorf("stopped after %d of %d batches: over %v", b, batches, updateTimeCap)
		}
		ops := nextBatch(rng, in.n, set)
		req := int64(b + 1)
		if rec != nil {
			g, err := replayDelta(rec, req, gCur, d.Engine().Internal(), ops, w)
			if err != nil {
				return w, err
			}
			gCur = g
		}
		for _, o := range ops {
			var err error
			if o.insert {
				err = d.AddEdge(o.e.Src, o.e.Dst)
				set.add(o.e)
			} else {
				err = d.RemoveEdge(o.e.Src, o.e.Dst)
				set.remove(o.e)
			}
			if err != nil {
				return w, fmt.Errorf("buffering update: %w", err)
			}
		}
		t0 := time.Now()
		r := d.StartFlush()
		err := r.Wait()
		t1 := time.Now()
		rec.add(0, req, "dynamic.flush", t0, t1)
		w.batchEnd = append(w.batchEnd, t1.Sub(start))
		if err != nil {
			w.flushFails++
			continue
		}
		w.flushMS = append(w.flushMS, ms(t1.Sub(t0)))
		w.modes[r.Status().Mode]++
		if updateCheckpoints[b] {
			w.checkpoints = append(w.checkpoints, checkpoint{
				eng: d.Engine(), edges: append([]bepi.Edge(nil), set.list...), seed: rng.Intn(in.n)})
		}
	}
	return w, nil
}

// replayDelta patches the graph with the batch (graph.WithEdgeDeltas) and
// applies it to the serving engine (core.Engine.ApplyDelta), timing both.
// The engine it builds is dropped; Dynamic makes its own. A delta the
// engine refuses needs the full rebuild Dynamic then runs.
func replayDelta(rec *recorder, req int64, g *graph.Graph, base *core.Engine, ops []op, w *writerResult) (*graph.Graph, error) {
	var add, del []graph.Edge
	deltas := make([]core.EdgeDelta, len(ops))
	for i, o := range ops {
		ge := graph.Edge{Src: o.e.Src, Dst: o.e.Dst}
		if o.insert {
			add = append(add, ge)
		} else {
			del = append(del, ge)
		}
		deltas[i] = core.EdgeDelta{Src: o.e.Src, Dst: o.e.Dst, Insert: o.insert}
	}
	t0 := time.Now()
	gNew, err := g.WithEdgeDeltas(g.N(), add, del)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("patching graph: %w", err)
	}
	rec.add(0, req, "graph.patch", t0, t1)
	_, st, err := base.ApplyDelta(gNew, deltas)
	rec.add(0, req, "core.apply_delta", t1, time.Now())
	switch {
	case err == nil:
		w.affectedCols += st.AffectedColumns
		w.maxRank = max(w.maxRank, st.Rank)
	case !errors.Is(err, core.ErrDeltaFull) && !errors.Is(err, core.ErrDriftExceeded):
		return nil, fmt.Errorf("applying delta: %w", err)
	}
	return gNew, nil
}
