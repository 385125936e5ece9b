// Package qexec is the query-execution subsystem between the HTTP layer
// and the BePI engine — the layer that turns "preprocess once, answer many
// queries fast" into served throughput. It combines:
//
//   - a worker pool (sized to GOMAXPROCS by default) where each worker owns
//     a reusable core.Workspace, so steady-state queries allocate nothing
//     but their result vectors;
//   - a batch scheduler that coalesces concurrently-arriving queries into
//     multi-RHS block-elimination solves (core.Engine.QueryVectorBatch),
//     amortizing the H11 back-substitutions and the H12/H21/H31/H32 SpMVs
//     across the batch;
//   - an LRU score cache with singleflight deduplication, so a hot seed
//     costs one solve no matter how many requests race for it;
//   - a bounded top-k path: TopK halts each Schur solve on a certified
//     score-error bound as soon as the top-k SET is provably settled
//     (core.Engine.TopKBoundedBatch), batches k-class requests separately
//     from full-vector ones, and serves any k from a cached or in-flight
//     full vector without a solve;
//   - admission control: a bounded queue that sheds load with
//     ErrOverloaded when full, and per-query deadlines threaded down into
//     the iterative Schur solver via context.Context.
//
// Counters for all of the above are exposed through Metrics for the
// server's /metrics endpoint, and every query is observed by an
// internal/obs Observer: latency/queue-wait/iteration/residual histograms,
// sampled per-query stage traces (admission → batch assembly → solve →
// rank), and a slow-query log.
package qexec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bepi/internal/core"
	"bepi/internal/obs"
)

// Errors reported by admission control.
var (
	// ErrOverloaded means the bounded queue was full; the caller should
	// shed the request (HTTP 429).
	ErrOverloaded = errors.New("qexec: queue full, request shed")
	// ErrClosed means the executor has been shut down.
	ErrClosed = errors.New("qexec: executor closed")
	// ErrSolvePanicked means the engine solve panicked under a request; the
	// panic was recovered by the worker so the pool (and every coalesced
	// waiter) keeps running, and the request fails with this error.
	ErrSolvePanicked = errors.New("qexec: solve panicked")
)

// Config sizes the executor. Zero values select defaults; CacheEntries < 0
// disables the cache.
type Config struct {
	// Workers is the pool size; default runtime.GOMAXPROCS(0).
	Workers int
	// MaxBatch caps how many queries one worker coalesces into a single
	// multi-RHS solve; default 8.
	MaxBatch int
	// BatchWindow is how long a worker holding a non-full batch waits for
	// more queries to arrive before solving; default 200µs. Zero after
	// defaulting is allowed via -1: solve immediately, batching only what
	// is already queued.
	BatchWindow time.Duration
	// QueueDepth bounds the admission queue; requests beyond it are shed
	// with ErrOverloaded. Default 4×Workers×MaxBatch.
	QueueDepth int
	// CacheEntries bounds the LRU score cache; default 1024, negative
	// disables caching.
	CacheEntries int
	// Timeout, if positive, is the per-query deadline applied on
	// submission and enforced inside the iterative solver.
	Timeout time.Duration
	// CopyCachedScores makes cache hits return a private copy of the
	// cached vector instead of the shared read-only one. Costs one O(N)
	// copy per hit; turn it on when callers need to mutate Result.Scores.
	CopyCachedScores bool
	// Parallelism, when non-zero, re-points the engine's compute pool
	// (core.Engine.SetParallelism) before the workers start: the sparse
	// kernels under each solve then use up to that many cores. Zero keeps
	// the engine's current pool (the shared GOMAXPROCS pool for freshly
	// loaded indexes). With Workers already sized to GOMAXPROCS the pool
	// is usually saturated by concurrent queries alone; raising kernel
	// parallelism mainly helps low-concurrency/large-graph serving — see
	// DESIGN.md for guidance on capping it.
	Parallelism int
	// Obs receives the executor's telemetry: latency/queue/iteration
	// histograms, per-query stage traces, and the slow-query log. Nil
	// selects obs.New with a 256-entry trace ring sampling one query in
	// DefaultTraceSample — histograms are always-on (sub-1% of the hot
	// path; see BenchmarkQexecThroughput qexec vs noobs), tracing is
	// sampled because its allocations are not. Pass obs.Disabled to turn
	// the layer off, or a custom observer with TraceSample 1 to trace
	// every query while debugging.
	Obs *obs.Observer
	// FullSolveTopK disables the bounded top-k path: TopK then always
	// solves to full tolerance and ranks (the pre-bounded behavior). The
	// bounded path returns the provably identical top-k set, so this is an
	// operational escape hatch / A-B knob, not a correctness switch.
	FullSolveTopK bool
}

// DefaultTraceSample is the default observer's trace sampling rate: one
// query in this many gets stage spans recorded into /debug/traces.
const DefaultTraceSample = 64

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 200 * time.Microsecond
	} else if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers * c.MaxBatch
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.Obs == nil {
		c.Obs = obs.New(obs.Options{TraceSample: DefaultTraceSample})
	}
	return c
}

// request is one query in flight through the pool. eng is the engine
// snapshot the query vector was built against: the worker solves on it even
// if SwapEngine replaces the serving engine while the request queues, so a
// batch never mixes engines (or query-vector lengths) across a swap.
type request struct {
	ctx   context.Context
	q     []float64
	eng   *core.Engine
	done  chan struct{}
	res   []float64
	stats core.QueryStats
	err   error

	// k > 0 marks a bounded top-k request: the worker routes it through
	// Engine.TopKBoundedBatch with `exclude` left out of the ranking, and
	// fills top/early/saved alongside res. Batches are k-class-homogeneous
	// — top-k and full-vector requests never share a multi-RHS solve, so a
	// full-vector batch is never held hostage by bound checks and a top-k
	// batch stops each member on its own certificate.
	k       int
	exclude int
	top     []core.Ranked
	early   bool
	saved   int

	// Observability: when the request was enqueued and dequeued (queue-wait
	// histogram and "admission" span), and the sampled trace it belongs to,
	// nil for untraced queries.
	enq time.Time
	deq time.Time
	at  *obs.ActiveTrace
}

// Result is a completed query: the score vector (shared and read-only when
// it came from the cache), engine stats, and how the subsystem served it.
type Result struct {
	// Scores is indexed by original node id. When Cached or Coalesced is
	// true it is shared with other callers and with the cache itself, and
	// MUST NOT be mutated: writing through it silently corrupts every
	// future hit for the same seed. Callers that need a private, mutable
	// vector set Config.CopyCachedScores (cache hits then copy on the way
	// out) or copy it themselves.
	Scores []float64
	Stats  core.QueryStats
	// Cached means the result came from the LRU cache without any solve.
	Cached bool
	// Coalesced means this request piggybacked on an identical in-flight
	// query (singleflight) instead of solving on its own.
	Coalesced bool
	// Generation is the engine generation the scores belong to (see
	// Executor.Generation). Cache hits, coalesced joins, and fresh solves
	// all carry the generation of the engine they were computed against, so
	// callers that must not mix scores across an engine swap — the cluster
	// coordinator's scatter-gather merge in particular — can compare tags
	// instead of guessing from timing.
	Generation uint64
	// EarlyStopped (TopK results only) means the scores come from a
	// bound-certified early-stopped solve: the top-k SET is exact, but
	// Scores are only within the certified radius of the true values —
	// they are never cached or served as full-tolerance vectors.
	EarlyStopped bool
	// SavedIters (early-stopped TopK results only) estimates the solver
	// iterations the early stop skipped.
	SavedIters int
}

// engineState is the executor's current engine together with the
// generation it belongs to, published as one unit so readers can never see
// a new engine with an old generation (or vice versa).
type engineState struct {
	eng *core.Engine
	gen uint64
}

// Executor is the query-execution subsystem over one preprocessed engine.
// It is safe for concurrent use. The engine can be replaced at runtime with
// SwapEngine (the dynamic-graph rebuild path); every cached or in-flight
// result is generation-tagged so nothing solved against one engine is ever
// served as an answer from another.
type Executor struct {
	eng atomic.Pointer[engineState]
	cfg Config
	obs *obs.Observer

	reqs chan *request
	mu   sync.RWMutex // guards closed vs. sends on reqs
	done bool
	wg   sync.WaitGroup

	cache *lruCache // nil when disabled

	fmu       sync.Mutex
	flights   map[int]*flight   // singleflight per seed (full-vector solves)
	tkFlights map[tkKey]*tkFlight // singleflight per (seed, k) bounded solve

	m counters
}

// flight is one in-progress single-seed solve that duplicate requests wait
// on. gen pins the engine generation the solve runs under: requests on a
// later generation never coalesce onto it.
type flight struct {
	done  chan struct{}
	gen   uint64
	res   []float64
	stats core.QueryStats
	err   error
}

// tkKey identifies one bounded top-k singleflight: requests for the same
// seed but different k have different stopping points, so they only
// coalesce with their exact (seed, k, generation) twins — or with a full
// solve for the seed, whose finished vector answers any k.
type tkKey struct {
	seed, k int
	gen     uint64
}

// tkFlight is one in-progress bounded top-k solve.
type tkFlight struct {
	done chan struct{}
	top  []core.Ranked
	res  Result
	err  error
}

// New starts the executor's worker pool over a preprocessed engine.
// Call Close to stop it.
func New(eng *core.Engine, cfg Config) *Executor {
	cfg = cfg.withDefaults()
	e := &Executor{
		cfg:       cfg,
		obs:       cfg.Obs,
		reqs:      make(chan *request, cfg.QueueDepth),
		flights:   make(map[int]*flight),
		tkFlights: make(map[tkKey]*tkFlight),
	}
	e.attach(eng)
	e.eng.Store(&engineState{eng: eng, gen: 1})
	if cfg.CacheEntries > 0 {
		e.cache = newLRUCache(cfg.CacheEntries, cfg.CopyCachedScores)
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// attach points an engine's telemetry hooks and compute pool at this
// executor; called for the initial engine and for every SwapEngine.
func (e *Executor) attach(eng *core.Engine) {
	if e.cfg.Parallelism != 0 {
		eng.SetParallelism(e.cfg.Parallelism)
	}
	// Live convergence telemetry: one atomic add per solver iteration.
	// (The hook is engine-wide; a second executor over the same engine
	// would re-point it.)
	eng.SetIterHook(func(int, float64) { e.obs.SolverIters.Add(1) })
	// Per-kernel telemetry: timing and bytes-streamed for each Schur
	// operator and preconditioner application. Same engine-wide caveat.
	eng.SetKernelHook(func(kernel string, seconds float64, bytes int64) {
		switch kernel {
		case core.KernelSchur:
			e.obs.SchurApply.Observe(seconds)
		case core.KernelPrecond:
			e.obs.PrecondApply.Observe(seconds)
		}
		e.obs.KernelBytes.Add(bytes)
		e.obs.KernelNanos.Add(int64(seconds * 1e9))
	})
}

// engine snapshots the current engine and its generation.
func (e *Executor) engine() (*core.Engine, uint64) {
	st := e.eng.Load()
	return st.eng, st.gen
}

// Engine returns the engine currently being served.
func (e *Executor) Engine() *core.Engine { return e.eng.Load().eng }

// Generation returns the current engine generation. It starts at 1 and is
// bumped by every SwapEngine.
func (e *Executor) Generation() uint64 { return e.eng.Load().gen }

// SwapEngine atomically replaces the engine the executor serves from — the
// dynamic-graph rebuild path. The swap is the only coordination queries
// ever see: requests already submitted keep solving against the engine
// they captured, but their results are tagged with the old generation, so
// neither the cache nor the singleflight map can serve them to queries
// that arrive after the swap. The score cache is purged eagerly (stale
// vectors free immediately) and the generation tag covers the remaining
// race of a pre-swap solve completing post-swap.
//
// SwapEngine is safe to call concurrently with queries. The new engine
// inherits the executor's telemetry hooks and, when Config.Parallelism is
// set, its compute-pool setting.
func (e *Executor) SwapEngine(eng *core.Engine) {
	cur := e.eng.Load()
	if cur.eng == eng {
		return
	}
	e.attach(eng)
	for {
		if e.eng.CompareAndSwap(cur, &engineState{eng: eng, gen: cur.gen + 1}) {
			break
		}
		cur = e.eng.Load()
		if cur.eng == eng {
			return
		}
	}
	e.m.swaps.Add(1)
	e.obs.Events.Record("engine_swap", "", map[string]string{
		"generation": strconv.FormatUint(e.eng.Load().gen, 10),
	})
	if e.cache != nil {
		e.cache.purge()
	}
	// Drop the stale flights: post-swap arrivals start fresh solves
	// instead of waiting on old-generation results. The old leaders still
	// hold their flight pointers and only delete map entries that are
	// identically theirs, so clearing here cannot strand a new flight.
	e.fmu.Lock()
	clear(e.flights)
	clear(e.tkFlights)
	e.fmu.Unlock()
}

// Config returns the executor's effective (defaulted) configuration.
func (e *Executor) Config() Config { return e.cfg }

// Observer exposes the executor's telemetry sinks (for the server's
// /metrics and /debug/traces endpoints).
func (e *Executor) Observer() *obs.Observer { return e.obs }

// Close stops accepting work, lets queued requests drain, and waits for the
// workers to exit. It is idempotent.
func (e *Executor) Close() {
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		return
	}
	e.done = true
	close(e.reqs)
	e.mu.Unlock()
	e.wg.Wait()
}

// worker owns one reusable workspace and runs coalesced batches until the
// queue closes. Batches are homogeneous in engine AND k-class: a request
// submitted before an engine swap is solved on the engine it captured, so
// a swap mid-queue splits a batch rather than mixing generations, and
// bounded top-k requests never share a multi-RHS solve with full-vector
// requests (carry holds the first request of the next batch when a split
// happens). The workspace is engine-bound and rebuilt when the worker
// moves to a new engine.
func (e *Executor) worker() {
	defer e.wg.Done()
	var ws *core.Workspace
	var wsEng *core.Engine
	batch := make([]*request, 0, e.cfg.MaxBatch)
	ctxs := make([]context.Context, 0, e.cfg.MaxBatch)
	qs := make([][]float64, 0, e.cfg.MaxBatch)
	var carry *request
	for {
		var r *request
		if carry != nil {
			r, carry = carry, nil
		} else {
			var ok bool
			r, ok = <-e.reqs
			if !ok {
				return
			}
			r.deq = e.obs.Now()
		}
		batch = append(batch[:0], r)
		// Take whatever is already queued, then hold the batch open for
		// the batch window to let concurrent arrivals coalesce.
	drain:
		for len(batch) < e.cfg.MaxBatch {
			select {
			case r2, ok := <-e.reqs:
				if !ok {
					break drain
				}
				r2.deq = e.obs.Now()
				if r2.eng != r.eng || (r2.k > 0) != (r.k > 0) {
					carry = r2
					break drain
				}
				batch = append(batch, r2)
			default:
				break drain
			}
		}
		if carry == nil && len(batch) < e.cfg.MaxBatch && e.cfg.BatchWindow > 0 {
			timer := time.NewTimer(e.cfg.BatchWindow)
		window:
			for len(batch) < e.cfg.MaxBatch {
				select {
				case r2, ok := <-e.reqs:
					if !ok {
						break window
					}
					r2.deq = e.obs.Now()
					if r2.eng != r.eng || (r2.k > 0) != (r.k > 0) {
						carry = r2
						break window
					}
					batch = append(batch, r2)
				case <-timer.C:
					break window
				}
			}
			timer.Stop()
		}

		e.m.observeBatch(len(batch))
		tSolve := e.obs.Now()
		ctxs = ctxs[:0]
		qs = qs[:0]
		for _, br := range batch {
			e.obs.QueueWait.Observe(br.deq.Sub(br.enq).Seconds())
			if br.at != nil {
				br.at.AddSpan("admission", br.enq, br.deq)
				br.at.AddSpan("batch", br.deq, tSolve)
				br.at.SetBatch(len(batch))
			}
			ctxs = append(ctxs, br.ctx)
			qs = append(qs, br.q)
		}
		if wsEng != r.eng {
			ws = r.eng.NewWorkspace()
			wsEng = r.eng
		}
		var panicErr error
		if r.k > 0 {
			panicErr = e.solveTopKBatch(r.eng, batch, ctxs, qs, ws)
		} else {
			panicErr = e.solveBatch(r.eng, batch, ctxs, qs, ws)
		}
		if panicErr != nil {
			// The engine panicked mid-solve: fail the whole batch instead
			// of hanging it, discard the workspace (its buffers are in an
			// unknown state), and keep the worker alive for the next batch.
			e.obs.Events.Record("solve_panic", r.at.TraceID(), map[string]string{
				"batch": strconv.Itoa(len(batch)),
				"error": panicErr.Error(),
			})
			wsEng, ws = nil, nil
			for _, br := range batch {
				br.err = panicErr
				close(br.done)
			}
			continue
		}
		tEnd := e.obs.Now()
		e.obs.BatchLatency.Observe(tEnd.Sub(tSolve).Seconds())
		for _, br := range batch {
			if br.at != nil {
				br.at.AddSpan("solve", tSolve, tEnd)
				br.at.SetSolve(br.stats.Iterations, br.stats.Residual)
				addStageSpans(br.at, tSolve, br.stats.Stages)
			}
			if br.err == nil {
				e.obs.Iterations.Observe(float64(br.stats.Iterations))
				e.obs.Residual.Observe(br.stats.Residual)
			}
			close(br.done)
		}
	}
}

// addStageSpans translates the engine's per-phase durations (permute,
// forward substitution, iterative Schur solve, back reconstruction) into
// child spans laid end to end from the solve start — the engine runs the
// phases sequentially, so cumulative offsets reconstruct the layout the
// coordinator's trace tree renders under the "solve" span.
func addStageSpans(at *obs.ActiveTrace, tSolve time.Time, st core.StageTimings) {
	t := tSolve
	for _, ph := range [...]struct {
		name string
		d    time.Duration
	}{{"permute", st.Permute}, {"forward", st.Forward}, {"schur", st.Solve}, {"back", st.Back}} {
		if ph.d <= 0 {
			continue
		}
		at.AddSpan(ph.name, t, t.Add(ph.d))
		t = t.Add(ph.d)
	}
}

// solveBatch runs the multi-RHS engine solve with a panic barrier: a panic
// inside the engine (or a hook it calls) is recovered and reported as an
// ErrSolvePanicked-wrapped error so the batch fails loudly instead of
// killing the worker and hanging every waiter. Results land in the
// requests positionally.
func (e *Executor) solveBatch(eng *core.Engine, batch []*request, ctxs []context.Context, qs [][]float64, ws *core.Workspace) (panicErr error) {
	defer func() {
		if p := recover(); p != nil {
			e.m.panics.Add(1)
			panicErr = fmt.Errorf("%w: %v", ErrSolvePanicked, p)
		}
	}()
	res, stats, errs := eng.QueryVectorBatch(ctxs, qs, ws)
	for i, br := range batch {
		br.res, br.stats, br.err = res[i], stats[i], errs[i]
	}
	return nil
}

// solveTopKBatch runs a k-class batch through the bounded top-k engine
// path, with the same panic barrier as solveBatch. Each member's Schur
// solve halts on its own gap certificate, so the batch completes when its
// last unresolved member does — nobody waits past that.
func (e *Executor) solveTopKBatch(eng *core.Engine, batch []*request, ctxs []context.Context, qs [][]float64, ws *core.Workspace) (panicErr error) {
	defer func() {
		if p := recover(); p != nil {
			e.m.panics.Add(1)
			panicErr = fmt.Errorf("%w: %v", ErrSolvePanicked, p)
		}
	}()
	ks := make([]int, len(batch))
	excl := make([]int, len(batch))
	for i, br := range batch {
		ks[i], excl[i] = br.k, br.exclude
	}
	tops, res, stats, errs := eng.TopKBoundedBatch(ctxs, qs, excl, ks, ws)
	for i, br := range batch {
		br.top, br.res, br.err = tops[i], res[i], errs[i]
		br.stats = stats[i].QueryStats
		br.early, br.saved = stats[i].EarlyStopped, stats[i].SavedIters
		if errs[i] == nil {
			e.m.topk.Add(1)
			if stats[i].EarlyStopped {
				e.m.early.Add(1)
				e.obs.TopKSaved.Observe(float64(stats[i].SavedIters))
			}
		}
	}
	return nil
}

// queryObs is the observability state of one query moving through the
// executor: its start time, its sampled trace (nil when untraced), and
// whether the trace had to be abandoned because the requester gave up
// while a worker still held it.
type queryObs struct {
	start     time.Time
	at        *obs.ActiveTrace
	abandoned bool
}

// startQuery opens the query's observation window. ctx may carry a
// propagated trace context (obs.WithTrace, set by the HTTP binding from an
// X-Bepi-Trace header or by the cluster coordinator's root span): such
// queries are traced unconditionally and their records attach under the
// remote parent, so a coordinator-rooted trace always contains the owning
// shard's qexec and solve-stage spans.
func (e *Executor) startQuery(ctx context.Context, kind string, seed int) queryObs {
	start := e.obs.Now()
	return queryObs{start: start, at: e.obs.Tracer.BeginCtx(ctx, kind, seed)}
}

// span closes a stage span on the sampled trace, reading the clock only
// when the query is actually traced.
func (e *Executor) span(at *obs.ActiveTrace, name string, from time.Time) {
	if at != nil {
		at.AddSpan(name, from, e.obs.Now())
	}
}

// finish records the query's completion: the latency histogram, the trace
// ring, and the slow-query log. An abandoned trace (deadline hit while a
// worker still held it) is dropped rather than raced.
func (e *Executor) finish(qo *queryObs, kind string, seed int, res *Result, err error) {
	end := e.obs.Now()
	total := end.Sub(qo.start)
	e.obs.QueryLatency.Observe(total.Seconds())
	at := qo.at
	if qo.abandoned {
		at = nil
	}
	if at != nil {
		if res.Generation > 0 {
			at.SetTag("generation", strconv.FormatUint(res.Generation, 10))
		}
		at.SetErr(err)
		at.Finish(end)
	}
	if sl := e.obs.SlowLog; sl.Slow(total) {
		sl.Log(kind, seed, at.TraceID(), total, res.Cached, res.Coalesced,
			res.Stats.Iterations, res.Stats.Residual, err, at.Spans())
		e.obs.Events.Record("slow_query", at.TraceID(), map[string]string{
			"kind":  kind,
			"seed":  strconv.Itoa(seed),
			"total": total.String(),
		})
	}
}

// submit enqueues a prepared request, shedding with ErrOverloaded when the
// queue is full and ErrClosed after shutdown.
func (e *Executor) submit(r *request) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.done {
		return ErrClosed
	}
	select {
	case e.reqs <- r:
		return nil
	default:
		e.m.shed.Add(1)
		e.obs.Events.Record("admission_reject", r.at.TraceID(), nil)
		return ErrOverloaded
	}
}

// do runs one query through admission control and the pool, honoring the
// per-query deadline both while waiting and inside the solver. eng is the
// engine snapshot the query vector was built against.
func (e *Executor) do(ctx context.Context, q []float64, eng *core.Engine, qo *queryObs) ([]float64, core.QueryStats, error) {
	if e.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.Timeout)
		defer cancel()
	}
	r := &request{ctx: ctx, q: q, eng: eng, done: make(chan struct{}), at: qo.at, enq: e.obs.Now()}
	if err := e.await(ctx, r, qo); err != nil {
		return nil, core.QueryStats{}, err
	}
	return r.res, r.stats, r.err
}

// await submits a prepared request and waits for the worker or the
// caller's context, whichever ends first. A nil return means the worker
// completed the request (r.err may still carry the solve's error).
func (e *Executor) await(ctx context.Context, r *request, qo *queryObs) error {
	if err := e.submit(r); err != nil {
		return err
	}
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		// The worker sees the same context and aborts the solve; the
		// requester does not wait for it. The worker may still append
		// spans to the trace afterwards, so the trace is abandoned
		// (never finished) instead of raced.
		qo.abandoned = true
		return ctx.Err()
	}
}

// run is the execution core of a single-seed query: cache hit, coalesce
// onto an identical in-flight solve, or solve through the batched pool.
// eng and gen are the engine snapshot the query runs against; cache
// lookups, cache fills, and singleflight joins all carry gen so nothing
// crosses an engine swap.
func (e *Executor) run(ctx context.Context, seed int, eng *core.Engine, gen uint64, qo *queryObs) (Result, error) {
	if e.cache != nil {
		scores, ok := e.cache.get(seed, gen)
		e.span(qo.at, "cache", qo.start)
		if ok {
			e.m.hits.Add(1)
			qo.at.SetCached()
			return Result{Scores: scores, Cached: true, Generation: gen}, nil
		}
	}
	e.m.misses.Add(1)

	e.fmu.Lock()
	if f, ok := e.flights[seed]; ok && f.gen == gen {
		e.fmu.Unlock()
		e.m.coalesced.Add(1)
		tw := e.obs.Now()
		select {
		case <-f.done:
			e.span(qo.at, "coalesce", tw)
			qo.at.SetCoalesced()
			if f.err != nil {
				return Result{}, f.err
			}
			qo.at.SetSolve(f.stats.Iterations, f.stats.Residual)
			return Result{Scores: f.res, Stats: f.stats, Coalesced: true, Generation: f.gen}, nil
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	// Leader: overwrite any stale (older-generation) flight; its leader
	// only removes entries that are identically its own.
	f := &flight{done: make(chan struct{}), gen: gen}
	e.flights[seed] = f
	e.fmu.Unlock()

	// The flight MUST be released no matter how the solve ends — error,
	// engine panic surfacing through do, even a panic in the cache fill —
	// or every coalesced waiter hangs until its context expires (forever
	// with no deadline). The map entry is removed before the channel
	// closes so late arrivals miss straight into the (already populated)
	// cache instead of a dead flight.
	defer func() {
		e.fmu.Lock()
		if e.flights[seed] == f {
			delete(e.flights, seed)
		}
		e.fmu.Unlock()
		close(f.done)
	}()

	q := make([]float64, eng.N())
	q[seed] = 1
	f.res, f.stats, f.err = e.do(ctx, q, eng, qo)
	if f.err != nil {
		return Result{}, f.err
	}
	if e.cache != nil {
		e.cache.put(seed, f.res, gen)
	}
	return Result{Scores: f.res, Stats: f.stats, Generation: gen}, nil
}

// Query answers a single-seed RWR query: cache hit, coalesce onto an
// identical in-flight solve, or run through the batched pool.
func (e *Executor) Query(ctx context.Context, seed int) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	eng, gen := e.engine()
	if seed < 0 || seed >= eng.N() {
		return Result{}, fmt.Errorf("qexec: seed %d out of range [0,%d)", seed, eng.N())
	}
	qo := e.startQuery(ctx, "query", seed)
	res, err := e.run(ctx, seed, eng, gen, &qo)
	e.finish(&qo, "query", seed, &res, err)
	return res, err
}

// Personalized answers an arbitrary-distribution PPR query through the
// batched pool. q must have length N; it is not cached (the key space is
// unbounded) but still benefits from pooled workspaces and batching.
func (e *Executor) Personalized(ctx context.Context, q []float64) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	eng, gen := e.engine()
	if len(q) != eng.N() {
		return Result{}, fmt.Errorf("qexec: query vector length %d want %d", len(q), eng.N())
	}
	qo := e.startQuery(ctx, "personalized", -1)
	e.m.misses.Add(1)
	scores, stats, err := e.do(ctx, q, eng, &qo)
	var res Result
	if err == nil {
		res = Result{Scores: scores, Stats: stats, Generation: gen}
	}
	e.finish(&qo, "personalized", -1, &res, err)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// TopK returns the k highest-scoring nodes for a seed (seed excluded).
// By default it runs the bound-pruned search: the Schur solve halts as
// soon as the engine's accuracy certificate proves the top-k SET is
// settled (see core.Engine.TopKBounded), which is provably the same set a
// full solve would rank — only the returned Scores may be early-stopped
// approximations (Result.EarlyStopped). A cached or in-flight full vector
// for the seed short-circuits the solve entirely: any k ranks out of a
// full vector for free. Config.FullSolveTopK, k <= 0, and k covering the
// whole graph all fall back to TopKFull.
func (e *Executor) TopK(ctx context.Context, seed, k int) ([]core.Ranked, Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	eng, gen := e.engine()
	if seed < 0 || seed >= eng.N() {
		return nil, Result{}, fmt.Errorf("qexec: seed %d out of range [0,%d)", seed, eng.N())
	}
	if e.cfg.FullSolveTopK || k <= 0 || k >= eng.N() {
		return e.TopKFull(ctx, seed, k)
	}
	qo := e.startQuery(ctx, "topk", seed)
	top, res, err := e.runTopK(ctx, seed, k, eng, gen, &qo)
	e.finish(&qo, "topk", seed, &res, err)
	return top, res, err
}

// TopKFull ranks the seed's full-tolerance score vector — the pre-bounded
// TopK behavior, served through the cache and pool like Query. It is the
// path for callers that need exact scores alongside the exact set (the
// cluster tier's weighted merges, debugging, A-B baselines). The ranking
// runs inside the query's observation window, so traces gain a "rank"
// span and the latency histogram covers it.
func (e *Executor) TopKFull(ctx context.Context, seed, k int) ([]core.Ranked, Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	eng, gen := e.engine()
	if seed < 0 || seed >= eng.N() {
		return nil, Result{}, fmt.Errorf("qexec: seed %d out of range [0,%d)", seed, eng.N())
	}
	qo := e.startQuery(ctx, "query", seed)
	res, err := e.run(ctx, seed, eng, gen, &qo)
	if err != nil {
		e.finish(&qo, "query", seed, &res, err)
		return nil, Result{}, err
	}
	tr := e.obs.Now()
	top := core.RankTopK(res.Scores, k, seed)
	e.span(qo.at, "rank", tr)
	e.finish(&qo, "query", seed, &res, nil)
	return top, res, nil
}

// runTopK is the execution core of a bounded top-k query: rank a cached
// or in-flight full vector if one exists (any k is served by a full
// vector without a solve), coalesce onto an identical (seed, k) bounded
// solve, or lead one through the k-class batched pool.
func (e *Executor) runTopK(ctx context.Context, seed, k int, eng *core.Engine, gen uint64, qo *queryObs) ([]core.Ranked, Result, error) {
	if e.cache != nil {
		scores, ok := e.cache.get(seed, gen)
		e.span(qo.at, "cache", qo.start)
		if ok {
			e.m.hits.Add(1)
			qo.at.SetCached()
			tr := e.obs.Now()
			top := core.RankTopK(scores, k, seed)
			e.span(qo.at, "rank", tr)
			return top, Result{Scores: scores, Cached: true, Generation: gen}, nil
		}
	}
	e.m.misses.Add(1)

	key := tkKey{seed: seed, k: k, gen: gen}
	e.fmu.Lock()
	// A full-vector solve already in flight for this seed will deliver
	// full-tolerance scores; ranking those answers any k, so join it
	// rather than starting a redundant bounded solve.
	if f, ok := e.flights[seed]; ok && f.gen == gen {
		e.fmu.Unlock()
		e.m.coalesced.Add(1)
		tw := e.obs.Now()
		select {
		case <-f.done:
			e.span(qo.at, "coalesce", tw)
			qo.at.SetCoalesced()
			if f.err != nil {
				return nil, Result{}, f.err
			}
			qo.at.SetSolve(f.stats.Iterations, f.stats.Residual)
			tr := e.obs.Now()
			top := core.RankTopK(f.res, k, seed)
			e.span(qo.at, "rank", tr)
			return top, Result{Scores: f.res, Stats: f.stats, Coalesced: true, Generation: f.gen}, nil
		case <-ctx.Done():
			return nil, Result{}, ctx.Err()
		}
	}
	if f, ok := e.tkFlights[key]; ok {
		e.fmu.Unlock()
		e.m.coalesced.Add(1)
		tw := e.obs.Now()
		select {
		case <-f.done:
			e.span(qo.at, "coalesce", tw)
			qo.at.SetCoalesced()
			if f.err != nil {
				return nil, Result{}, f.err
			}
			res := f.res
			res.Coalesced = true
			qo.at.SetSolve(res.Stats.Iterations, res.Stats.Residual)
			return f.top, res, nil
		case <-ctx.Done():
			return nil, Result{}, ctx.Err()
		}
	}
	f := &tkFlight{done: make(chan struct{})}
	e.tkFlights[key] = f
	e.fmu.Unlock()

	// Same release discipline as run(): the flight must open no matter how
	// the solve ends, and the map entry goes before the channel closes.
	defer func() {
		e.fmu.Lock()
		if e.tkFlights[key] == f {
			delete(e.tkFlights, key)
		}
		e.fmu.Unlock()
		close(f.done)
	}()

	if e.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.Timeout)
		defer cancel()
	}
	q := make([]float64, eng.N())
	q[seed] = 1
	r := &request{ctx: ctx, q: q, eng: eng, done: make(chan struct{}),
		at: qo.at, enq: e.obs.Now(), k: k, exclude: seed}
	if err := e.await(ctx, r, qo); err != nil {
		f.err = err
		return nil, Result{}, err
	}
	if r.err != nil {
		f.err = r.err
		return nil, Result{}, r.err
	}
	res := Result{Scores: r.res, Stats: r.stats, Generation: gen,
		EarlyStopped: r.early, SavedIters: r.saved}
	// Early-stopped vectors are exact only as a top-k SET, not as scores:
	// they never enter the cache, which holds full-tolerance vectors only.
	if e.cache != nil && !r.early {
		e.cache.put(seed, r.res, gen)
	}
	f.top, f.res = r.top, res
	return r.top, res, nil
}
