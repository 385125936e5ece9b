package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/sparse"
)

// Core is the transport-agnostic serving core: the query/top-k/metrics
// logic that used to live inside the HTTP handlers, factored out so the
// same engine can serve two transports at once — the public HTTP binding
// (Server) and the cluster coordinator's in-process replica path
// (internal/cluster.LocalBackend). Core methods speak plain requests and
// responses; transport concerns (JSON decoding, status codes, headers)
// stay in the bindings, which map Core errors through StatusOf.
//
// Every response that carries scores is tagged with the (index hash,
// generation) pair it was computed under, so a coordinator gathering
// partial results from several replicas can refuse to merge across an
// engine swap.
type Core struct {
	eng  atomic.Pointer[bepi.Engine]
	dyn  *bepi.Dynamic // nil for a static index
	exec *qexec.Executor

	// hashes maps engine generation → index fingerprint, so a result tagged
	// with an older generation (a solve that finished after a swap) is
	// paired with the hash of the engine it was actually computed on, not
	// the current one. Bounded to the last few generations.
	hmu    sync.Mutex
	hashes map[uint64]string

	// Served-traffic counters (atomic; exposed at /metrics).
	queries      atomic.Int64
	personalized atomic.Int64
	errors       atomic.Int64
	queryNanos   atomic.Int64

	// Dynamic-rebuild bookkeeping (atomic; exposed at /metrics).
	// deltaApplied counts rebuilds absorbed incrementally (delta-spoke or
	// delta-hub mode); lastRebuildMode holds the mode of the most recent
	// settled rebuild as a bepi.RebuildMode string.
	deltaApplied    atomic.Int64
	lastRebuildMode atomic.Value
}

// NewCore builds a serving core over a static preprocessed engine. Call
// Close to stop the execution pool.
func NewCore(eng *bepi.Engine, cfg qexec.Config) *Core {
	c := &Core{
		exec:   qexec.New(eng.Internal(), cfg),
		hashes: make(map[uint64]string),
	}
	c.eng.Store(eng)
	c.recordHash(c.exec.Generation(), eng)
	return c
}

// NewDynamicCore builds a serving core over a dynamic (online-update)
// index: every successful background rebuild atomically swaps the serving
// engine, purges the executor's score cache, bumps the generation, and
// records the new index fingerprint.
func NewDynamicCore(d *bepi.Dynamic, cfg qexec.Config) *Core {
	c := NewCore(d.Engine(), cfg)
	c.dyn = d
	d.OnSwap(func(eng *bepi.Engine, gen uint64, rebuild time.Duration) {
		c.eng.Store(eng)
		c.exec.SwapEngine(eng.Internal())
		c.recordHash(c.exec.Generation(), eng)
		c.exec.Observer().Rebuild.Observe(rebuild.Seconds())
	})
	// Flight-recorder events for rebuild outcomes. OnSwap covers the
	// engine-swap bookkeeping above; OnRebuild additionally fires for
	// failed rebuilds, which never swap but are exactly what an incident
	// review needs to see.
	d.OnRebuild(func(id, gen uint64, rebuild time.Duration, mode bepi.RebuildMode, err error) {
		ev := c.exec.Observer().Events
		fields := map[string]string{
			"id":         strconv.FormatUint(id, 10),
			"generation": strconv.FormatUint(gen, 10),
			"duration":   rebuild.String(),
			"mode":       string(mode),
		}
		if err != nil {
			fields["error"] = err.Error()
			ev.Record("rebuild_fail", "", fields)
			return
		}
		c.lastRebuildMode.Store(string(mode))
		if mode == bepi.RebuildModeDeltaSpoke || mode == bepi.RebuildModeDeltaHub {
			c.deltaApplied.Add(1)
		}
		ev.Record("rebuild_swap", "", fields)
	})
	return c
}

// BuildInfo reports the running build's identity: module version and Go
// toolchain.
func (c *Core) BuildInfo() obs.BuildInfo {
	return obs.BuildInfo{Version: bepi.Version, GoVersion: runtime.Version()}
}

// MetricsSnapshot exports this core's metrics in the mergeable form the
// cluster coordinator aggregates: every observer histogram keyed by its
// Prometheus family name, the cumulative counters, and build identity.
// Served at GET /metrics/snapshot.
func (c *Core) MetricsSnapshot() obs.MetricsSnapshot {
	o := c.exec.Observer()
	xm := c.exec.Metrics()
	var slow int64
	if o.SlowLog != nil {
		slow = o.SlowLog.Count()
	}
	return obs.MetricsSnapshot{
		TakenAt:    time.Now(),
		Histograms: o.HistogramSnapshots(),
		Counters: map[string]int64{
			"queries":           c.queries.Load(),
			"personalized":      c.personalized.Load(),
			"errors":            c.errors.Load(),
			"cache_hits":        xm.CacheHits,
			"cache_misses":      xm.CacheMisses,
			"coalesced":         xm.Coalesced,
			"shed":              xm.Shed,
			"engine_swaps":      xm.EngineSwaps,
			"solve_panics":      xm.SolvePanics,
			"topk_solves":       xm.TopKSolves,
			"topk_early_stops":  xm.EarlyStops,
			"slow_queries":      slow,
			"solver_iterations": o.SolverIters.Load(),
			"kernel_bytes":      o.KernelBytes.Load(),
			"kernel_seconds_ns": o.KernelNanos.Load(),
			"delta_applied":     c.deltaApplied.Load(),
		},
		Build: c.BuildInfo(),
	}
}

// Engine snapshots the currently serving engine.
func (c *Core) Engine() *bepi.Engine { return c.eng.Load() }

// Dynamic returns the underlying dynamic index, or nil for a static one.
func (c *Core) Dynamic() *bepi.Dynamic { return c.dyn }

// Executor exposes the execution subsystem (for bindings and tests).
func (c *Core) Executor() *qexec.Executor { return c.exec }

// Close drains and stops the query-execution pool.
func (c *Core) Close() { c.exec.Close() }

// IndexFingerprint hashes the quantities that determine an engine's
// answers — graph size, partition, Schur structure, and solver options —
// into a short hex tag. Two replicas that preprocessed the same graph with
// the same options fingerprint identically; any edge update changes it. The cluster coordinator uses equality of this tag (plus the
// generation) as its merge guard.
func IndexFingerprint(eng *bepi.Engine) string {
	st := eng.Internal().PrepStats()
	opts := eng.Internal().Options()
	h := fnv.New64a()
	for _, v := range []uint64{
		uint64(st.N), uint64(st.M), uint64(st.N1), uint64(st.N2),
		uint64(st.N3), uint64(st.Blocks), uint64(st.SchurNNZ),
		math.Float64bits(st.HubRatio),
		math.Float64bits(opts.C), math.Float64bits(opts.Tol),
		uint64(opts.Variant),
	} {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (c *Core) recordHash(gen uint64, eng *bepi.Engine) {
	fp := IndexFingerprint(eng)
	c.hmu.Lock()
	c.hashes[gen] = fp
	for g := range c.hashes {
		if g+8 < gen {
			delete(c.hashes, g)
		}
	}
	c.hmu.Unlock()
}

// hashFor returns the index fingerprint recorded for a generation (empty
// when the generation has aged out of the window).
func (c *Core) hashFor(gen uint64) string {
	c.hmu.Lock()
	defer c.hmu.Unlock()
	return c.hashes[gen]
}

// Generation returns the engine generation currently being served.
func (c *Core) Generation() uint64 { return c.exec.Generation() }

// IndexHash returns the fingerprint of the engine currently being served.
func (c *Core) IndexHash() string { return c.hashFor(c.exec.Generation()) }

// RebuildInFlight reports whether a background index rebuild is running.
func (c *Core) RebuildInFlight() bool {
	if c.dyn == nil {
		return false
	}
	r := c.dyn.LastRebuild()
	return r != nil && r.Status().State == bepi.RebuildRunning
}

// HealthResponse is the /healthz readiness payload: enough for a load
// balancer or the cluster coordinator's health checker to route around a
// replica that is rebuilding or backed up.
type HealthResponse struct {
	Status     string `json:"status"`
	Nodes      int    `json:"nodes"`
	Generation uint64 `json:"generation"`
	IndexHash  string `json:"index_hash"`
	// QueueDepth is the current admission-queue occupancy (gauge).
	QueueDepth int `json:"queue_depth"`
	// RebuildInFlight is true while a background rebuild is running; the
	// replica keeps answering from the previous index for its duration.
	RebuildInFlight bool `json:"rebuild_in_flight"`
	// PendingUpdates counts buffered edge updates (dynamic mode only).
	PendingUpdates int `json:"pending_updates,omitempty"`
}

// Health reports the core's readiness state.
func (c *Core) Health() HealthResponse {
	h := HealthResponse{
		Status:          "ok",
		Nodes:           c.Engine().N(),
		Generation:      c.Generation(),
		IndexHash:       c.IndexHash(),
		QueueDepth:      c.exec.Metrics().Queued,
		RebuildInFlight: c.RebuildInFlight(),
	}
	if c.dyn != nil {
		h.PendingUpdates = c.dyn.Pending()
	}
	return h
}

// StatusError is an error with an HTTP-shaped status code, returned by
// Core methods for request-level failures (bad seed, bad weights) so every
// transport maps them identically.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string { return e.Msg }

func badRequest(format string, args ...any) error {
	return &StatusError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// StatusOf maps a Core (or qexec) error to its HTTP status: shed load is
// 429, deadline/shutdown are 503, validation errors carry their own
// status, anything else is a 500.
func StatusOf(err error) int {
	var se *StatusError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &se):
		return se.Status
	case errors.Is(err, qexec.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, qexec.ErrClosed),
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// RetryAfterSeconds is the back-off hint attached to admission-control
// rejections: 429 means the queue is momentarily full (retry quickly, the
// queue drains at solve speed); 503 means shutdown or deadline trouble
// (back off harder). Zero means no hint.
func RetryAfterSeconds(status int) int {
	switch status {
	case http.StatusTooManyRequests:
		return 1
	case http.StatusServiceUnavailable:
		return 2
	}
	return 0
}

// QueryRequest is one single-seed query through the core.
type QueryRequest struct {
	Seed int
	// TopK bounds the ranking length (default 10); ignored when Full.
	TopK int
	// Full returns the whole score vector instead of a ranking.
	Full bool
	// Exact forces the ranking to come from a full-tolerance solve instead
	// of the default bound-pruned search. Both return the identical top-k
	// SET; Exact additionally guarantees the reported scores are at full
	// solver tolerance (the cluster tier's weighted merges need that).
	Exact bool
	// Debug attaches solver/stage detail to the response.
	Debug bool
}

// Query answers a single-seed query: a ranking by default, the full score
// vector when req.Full. The returned scores may be shared with the
// executor's cache and must be treated as read-only.
func (c *Core) Query(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	if n := c.Engine().N(); req.Seed < 0 || req.Seed >= n {
		c.errors.Add(1)
		return QueryResponse{}, badRequest("seed %d out of range [0,%d)", req.Seed, n)
	}
	topk := req.TopK
	if topk == 0 {
		topk = 10
	}
	if topk < 0 {
		c.errors.Add(1)
		return QueryResponse{}, badRequest("bad topk %d", topk)
	}
	start := time.Now()
	var res qexec.Result
	var top []core.Ranked
	var err error
	switch {
	case req.Full:
		res, err = c.exec.Query(ctx, req.Seed)
	case req.Exact:
		// Full-tolerance solve + rank: exact scores, not just the exact set.
		top, res, err = c.exec.TopKFull(ctx, req.Seed, topk)
	default:
		// Bound-pruned search: the Schur solve stops as soon as the top-k
		// set is certified, a cached full vector is ranked without touching
		// the engine. Ranking runs inside the executor so traces carry the
		// "rank" span.
		top, res, err = c.exec.TopK(ctx, req.Seed, topk)
	}
	if err != nil {
		c.errors.Add(1)
		return QueryResponse{}, err
	}
	c.queries.Add(1)
	c.queryNanos.Add(time.Since(start).Nanoseconds())
	resp := QueryResponse{
		Seed:         req.Seed,
		Iterations:   res.Stats.Iterations,
		DurationMS:   float64(time.Since(start).Microseconds()) / 1000,
		Cached:       res.Cached,
		EarlyStopped: res.EarlyStopped,
		Generation:   res.Generation,
		IndexHash:    c.hashFor(res.Generation),
	}
	if req.Debug {
		resp.Debug = queryDebug(res)
	}
	if req.Full {
		resp.Scores = res.Scores
	} else {
		resp.Top = make([]RankedEntry, len(top))
		for i, t := range top {
			resp.Top[i] = RankedEntry{Node: t.Node, Score: t.Score}
		}
	}
	return resp, nil
}

// PersonalizedResponse is the /personalized payload.
type PersonalizedResponse struct {
	Top        []RankedEntry `json:"top"`
	DurationMS float64       `json:"duration_ms"`
	Generation uint64        `json:"generation"`
	IndexHash  string        `json:"index_hash,omitempty"`
}

// Personalized answers a multi-seed PPR query from a node→weight map. The
// weights are validated and normalized here so both transports enforce the
// same rules; seeds themselves are excluded from the ranking.
func (c *Core) Personalized(ctx context.Context, weights map[int]float64, topk int) (PersonalizedResponse, error) {
	if len(weights) == 0 {
		c.errors.Add(1)
		return PersonalizedResponse{}, badRequest("weights must be non-empty")
	}
	q := make([]float64, c.Engine().N())
	var sum float64
	seeds := map[int]bool{}
	for node, v := range weights {
		if node < 0 || node >= len(q) {
			c.errors.Add(1)
			return PersonalizedResponse{}, badRequest("node id %d out of range [0,%d)", node, len(q))
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			c.errors.Add(1)
			return PersonalizedResponse{}, badRequest("weight for node %d must be finite and non-negative", node)
		}
		q[node] += v
		sum += v
		seeds[node] = true
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		c.errors.Add(1)
		return PersonalizedResponse{}, badRequest("weights must sum to a positive finite value")
	}
	for i := range q {
		q[i] /= sum
	}
	if topk <= 0 {
		topk = 10
	}
	start := time.Now()
	res, err := c.exec.Personalized(ctx, q)
	if err != nil {
		c.errors.Add(1)
		return PersonalizedResponse{}, err
	}
	c.personalized.Add(1)
	c.queryNanos.Add(time.Since(start).Nanoseconds())
	scores := res.Scores
	top := core.RankTopKFunc(scores, topk, func(node int) bool {
		return seeds[node] || scores[node] <= 0
	})
	entries := make([]RankedEntry, len(top))
	for i, t := range top {
		entries[i] = RankedEntry{Node: t.Node, Score: t.Score}
	}
	return PersonalizedResponse{
		Top:        entries,
		DurationMS: float64(time.Since(start).Microseconds()) / 1000,
		Generation: res.Generation,
		IndexHash:  c.hashFor(res.Generation),
	}, nil
}

// MetricsResponse is the /metrics payload.
type MetricsResponse struct {
	Queries         int64   `json:"queries"`
	Personalized    int64   `json:"personalized"`
	Errors          int64   `json:"errors"`
	AvgQueryMS      float64 `json:"avg_query_ms"`
	IndexBytes      int64   `json:"index_bytes"`
	PreprocessMS    float64 `json:"preprocess_ms"`
	QueriesPerIndex float64 `json:"queries_per_preprocess"`

	// Query-execution subsystem counters.
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheEntries  int     `json:"cache_entries"`
	Coalesced     int64   `json:"coalesced"`
	Shed          int64   `json:"shed"`
	Batches       int64   `json:"batches"`
	Executed      int64   `json:"executed"`
	BatchSizeHist []int64 `json:"batch_size_hist"` // buckets ≤1, ≤2, ≤4, ≤8, ≤16, +Inf
	Queued        int     `json:"queued"`
	HitRate       float64 `json:"hit_rate"`
	AvgBatchSize  float64 `json:"avg_batch_size"`

	// Bounded top-k path: how many queries took it, how many of those the
	// certificate stopped early, and the distribution of iterations saved.
	TopKSolves int64            `json:"topk_solves"`
	EarlyStops int64            `json:"topk_early_stops"`
	TopKSaved  IterationSummary `json:"topk_iters_saved"`

	// Observability layer: solver progress, latency quantiles, slow queries.
	SolverIters  int64          `json:"solver_iters_total"`
	SlowQueries  int64          `json:"slow_queries"`
	QueryLatency LatencySummary `json:"query_latency"`
	QueueWait    LatencySummary `json:"queue_wait"`

	// Dynamic-update subsystem (generation is 1 and the rest zero for a
	// static index).
	Generation     uint64         `json:"generation"`
	EngineSwaps    int64          `json:"engine_swaps"`
	SolvePanics    int64          `json:"solve_panics"`
	PendingUpdates int            `json:"pending_updates"`
	RebuildLatency LatencySummary `json:"rebuild_latency"`

	// Prep is the preprocessing stage/size breakdown (core.PrepStats).
	Prep PrepMetrics `json:"prep"`

	// Kernel is the achieved-bandwidth view of the solve kernels: bytes and
	// seconds accumulated by the kernel hook, their ratio, and the measured
	// STREAM roof it is judged against.
	Kernel KernelMetrics `json:"kernel"`
}

// KernelMetrics reports how close the observed solve kernels run to the
// machine's memory-bandwidth roof.
type KernelMetrics struct {
	// Bytes and Seconds accumulate over every observed Schur-operator and
	// preconditioner application.
	Bytes   int64   `json:"bytes"`
	Seconds float64 `json:"seconds"`
	// AchievedBytesPerSec is Bytes/Seconds (0 before any kernel ran).
	AchievedBytesPerSec float64 `json:"achieved_bytes_per_second"`
	// StreamBytesPerSec is the host's one-shot STREAM-triad roof.
	StreamBytesPerSec float64 `json:"stream_bytes_per_second"`
	// PctOfStream is 100·Achieved/Stream.
	PctOfStream float64 `json:"pct_of_stream"`
}

// Stats reports the index statistics (the /stats payload).
func (c *Core) Stats() StatsResponse {
	eng := c.Engine()
	st := eng.Internal().PrepStats()
	opts := eng.Internal().Options()
	return StatsResponse{
		Nodes:          eng.N(),
		Spokes:         st.N1,
		Hubs:           st.N2,
		Deadends:       st.N3,
		SchurNNZ:       st.SchurNNZ,
		IndexBytes:     eng.MemoryBytes(),
		HubRatio:       st.HubRatio,
		RestartProb:    opts.C,
		Tolerance:      opts.Tol,
		Variant:        opts.Variant.String(),
		Preconditioned: eng.Internal().Preconditioned(),
	}
}

// Metrics assembles the full metrics snapshot (the /metrics JSON payload).
func (c *Core) Metrics() MetricsResponse {
	eng := c.Engine()
	q := c.queries.Load() + c.personalized.Load()
	var avg float64
	if q > 0 {
		avg = float64(c.queryNanos.Load()) / float64(q) / 1e6
	}
	prepMS := float64(eng.PreprocessTime().Microseconds()) / 1000
	var ratio float64
	if prepMS > 0 {
		ratio = float64(q) * avg / prepMS
	}
	xm := c.exec.Metrics()
	o := c.exec.Observer()
	st := eng.Internal().PrepStats()
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	var slow int64
	if o.SlowLog != nil {
		slow = o.SlowLog.Count()
	}
	var pending int
	if c.dyn != nil {
		pending = c.dyn.Pending()
	}
	return MetricsResponse{
		Queries:         c.queries.Load(),
		Personalized:    c.personalized.Load(),
		Errors:          c.errors.Load(),
		AvgQueryMS:      avg,
		IndexBytes:      eng.MemoryBytes(),
		PreprocessMS:    prepMS,
		QueriesPerIndex: ratio,
		CacheHits:       xm.CacheHits,
		CacheMisses:     xm.CacheMisses,
		CacheEntries:    xm.CacheEntries,
		Coalesced:       xm.Coalesced,
		Shed:            xm.Shed,
		Batches:         xm.Batches,
		Executed:        xm.Executed,
		BatchSizeHist:   xm.BatchSizeHist[:],
		Queued:          xm.Queued,
		HitRate:         xm.HitRate(),
		AvgBatchSize:    xm.AvgBatchSize(),
		TopKSolves:      xm.TopKSolves,
		EarlyStops:      xm.EarlyStops,
		TopKSaved:       summarizeIters(o.TopKSaved),
		SolverIters:     o.SolverIters.Load(),
		SlowQueries:     slow,
		QueryLatency:    summarize(o.QueryLatency),
		QueueWait:       summarize(o.QueueWait),
		Generation:      xm.Generation,
		EngineSwaps:     xm.EngineSwaps,
		SolvePanics:     xm.SolvePanics,
		PendingUpdates:  pending,
		RebuildLatency:  summarize(o.Rebuild),
		Prep: PrepMetrics{
			TotalMS:     ms(st.Total),
			ReorderMS:   ms(st.Reorder),
			BuildHMS:    ms(st.BuildH),
			FactorH11MS: ms(st.FactorH11),
			SchurMS:     ms(st.Schur),
			ILUMS:       ms(st.ILU),
			Nodes:       st.N,
			Edges:       st.M,
			Spokes:      st.N1,
			Hubs:        st.N2,
			Deadends:    st.N3,
			Blocks:      st.Blocks,
			SchurNNZ:    st.SchurNNZ,
			HubRatio:    st.HubRatio,
			Workers:     st.Workers,
		},
		Kernel: kernelMetrics(o),
	}
}

// kernelMetrics assembles the achieved-vs-roof bandwidth view from the
// observer's kernel counters and the process-wide probes.
func kernelMetrics(o *obs.Observer) KernelMetrics {
	k := KernelMetrics{
		Bytes:               o.KernelBytes.Load(),
		Seconds:             float64(o.KernelNanos.Load()) / 1e9,
		AchievedBytesPerSec: o.AchievedBandwidth(),
		StreamBytesPerSec:   sparse.StreamBandwidth(),
	}
	if k.StreamBytesPerSec > 0 {
		k.PctOfStream = 100 * k.AchievedBytesPerSec / k.StreamBytesPerSec
	}
	return k
}
