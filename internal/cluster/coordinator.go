package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bepi/internal/core"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// Errors reported by the coordinator.
var (
	// ErrNoReplicas means every replica is ejected (or none were
	// configured); the cluster cannot answer.
	ErrNoReplicas = errors.New("cluster: no healthy replicas")
	// ErrGenerationMix means a scatter-gather merge could not assemble
	// partials from a single engine generation — a rebuild was swapping
	// engines mid-gather and the retry pass still straddled it. The query
	// is safe to retry.
	ErrGenerationMix = errors.New("cluster: partial results span index generations, refusing to merge")
)

// Config tunes the coordinator. Zero values select defaults.
type Config struct {
	// Vnodes is the virtual-node count per replica (default DefaultVnodes).
	Vnodes int
	// HealthInterval is the probe period of the background health checker
	// (default 2s; negative disables the background loop — probes then run
	// only via CheckNow, which tests use for determinism).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive probe failures eject a replica
	// from the ring (default 3).
	FailThreshold int
	// ReadmitThreshold is how many consecutive probe successes readmit an
	// ejected replica (default 2).
	ReadmitThreshold int
	// Retries bounds how many ring successors a failed query is retried on
	// (default 2; 0 disables retry).
	Retries int
	// RetryBackoff is the base wait before each retry, doubling per
	// attempt; a replica's Retry-After hint overrides it when longer
	// (default 5ms). The wait honors the caller's context.
	RetryBackoff time.Duration
	// AttemptTimeout bounds each replica attempt (default 10s). A timed-out
	// attempt counts as a retryable replica failure (504), not a caller
	// cancellation.
	AttemptTimeout time.Duration
	// FullVectorMerge forces Personalized to gather full score vectors and
	// merge them (the pre-rank-merge behavior) instead of attempting the
	// top-k rank merge first. Both produce bit-identical results — the rank
	// merge falls back to the full merge whenever it cannot certify
	// exactness — so this is an A-B/debugging knob, not a correctness one.
	FullVectorMerge bool
	// Obs is the coordinator's observability bundle: its tracer opens the
	// root span of every distributed trace (replicas attach under it via
	// the propagated X-Bepi-Trace context), and its flight recorder logs
	// routing events (retries, ejections, generation mixes). Nil selects a
	// default enabled observer sampling 1 query in DefaultTraceSample;
	// pass obs.Disabled to turn the layer off.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReadmitThreshold <= 0 {
		c.ReadmitThreshold = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.Obs == nil {
		c.Obs = obs.New(obs.Options{TraceSample: qexec.DefaultTraceSample})
	}
	return c
}

// replica is the coordinator's per-backend state: health-checker counters
// (touched only by the checker goroutine), the last health report, and
// routing metrics.
type replica struct {
	name    string
	backend Backend

	healthy    atomic.Bool
	consecFail int // health-checker goroutine only
	consecOK   int // health-checker goroutine only
	lastHealth atomic.Pointer[Health]

	routed       atomic.Int64
	errs         atomic.Int64
	retries      atomic.Int64
	ejections    atomic.Int64
	readmissions atomic.Int64
	latency      *obs.Histogram
}

// Coordinator fronts a fixed set of replica backends with consistent-hash
// routing, health-driven ring membership, and generation-aware
// scatter-gather. It is safe for concurrent use.
type Coordinator struct {
	cfg      Config
	replicas map[string]*replica // immutable after New
	names    []string            // sorted

	ring atomic.Pointer[Ring]
	mu   sync.Mutex // serializes ring membership transitions

	// obs carries the coordinator's tracer (root spans of distributed
	// traces) and flight recorder. Never nil after New.
	obs *obs.Observer

	// Scatter-gather counters.
	batches    atomic.Int64
	merges     atomic.Int64
	mixRefused atomic.Int64
	degraded   atomic.Int64
	// refetches counts partials re-queried to converge a gather on one
	// engine generation (the minority side of a mid-gather swap).
	refetches atomic.Int64
	// Rank-merge counters: merges answered from per-shard top-k lists, how
	// often the candidate lists had to be escalated (re-fetched wider), and
	// how often the merge gave up and fell back to full vectors.
	rankMerges      atomic.Int64
	rankEscalations atomic.Int64
	fullFallbacks   atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a coordinator over the given backends and starts its health
// checker (unless disabled). All replicas start healthy and on the ring;
// the first probe round corrects that within one HealthInterval. Call
// Close to stop the checker.
func New(backends []Backend, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: at least one replica backend is required")
	}
	c := &Coordinator{
		cfg:      cfg,
		obs:      cfg.Obs,
		replicas: make(map[string]*replica, len(backends)),
		stop:     make(chan struct{}),
	}
	for _, b := range backends {
		if _, dup := c.replicas[b.Name()]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica name %q", b.Name())
		}
		r := &replica{
			name:    b.Name(),
			backend: b,
			latency: obs.NewHistogram("replica_latency", obs.LatencyBuckets()),
		}
		r.healthy.Store(true)
		c.replicas[b.Name()] = r
		c.names = append(c.names, b.Name())
	}
	sort.Strings(c.names)
	c.ring.Store(NewRing(c.names, cfg.Vnodes))
	if cfg.HealthInterval > 0 {
		c.wg.Add(1)
		go c.healthLoop()
	}
	return c, nil
}

// Close stops the health checker. It does not close the backends.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Ring returns the current routing ring (healthy members only).
func (c *Coordinator) Ring() *Ring { return c.ring.Load() }

// Observer exposes the coordinator's observability bundle (tracer + flight
// recorder) for the HTTP handler and tests.
func (c *Coordinator) Observer() *obs.Observer { return c.obs }

// beginTrace opens the coordinator-side trace record for one cluster
// operation and returns a context carrying its trace context, so replica
// attempts — and the shard processes behind them, via the propagated
// X-Bepi-Trace header — record under the same trace ID with this record as
// their parent span. Inside an already-traced context (a batch fan-out leg,
// or a request that arrived with X-Bepi-Trace) the record is forced
// regardless of sampling: the root decided this query is traced.
func (c *Coordinator) beginTrace(ctx context.Context, kind string, seed int) (*obs.ActiveTrace, context.Context) {
	at := c.obs.Tracer.BeginCtx(ctx, kind, seed)
	if at == nil {
		return nil, ctx
	}
	return at, obs.WithTrace(ctx, at.Context())
}

// Query answers a single-seed query, routing to the seed's ring owner for
// cache affinity and retrying ring successors (with back-off honoring the
// replica's Retry-After hint) on retryable failures.
func (c *Coordinator) Query(ctx context.Context, seed, topk int, full bool) (Partial, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	at, ctx := c.beginTrace(ctx, "cluster.query", seed)
	p, err := c.route(ctx, at, seed, topk, full)
	if at != nil {
		if err != nil {
			at.SetErr(err)
		} else {
			at.SetTag("shard", p.Replica)
			at.SetTag("generation", strconv.FormatUint(p.Generation, 10))
			if p.Cached {
				at.SetCached()
			}
		}
		at.Finish(c.obs.Now())
	}
	return p, err
}

// route walks the seed's ring successors: the owner first, then up to
// Retries fallbacks, each behind a back-off. Every attempt (and every
// back-off wait) becomes a span on the coordinator's trace record, tagged
// with the shard and attempt number; retries and exhausted routes go to the
// flight recorder.
func (c *Coordinator) route(ctx context.Context, at *obs.ActiveTrace, seed, topk int, full bool) (Partial, error) {
	ring := c.ring.Load()
	if ring.Len() == 0 {
		return Partial{}, ErrNoReplicas
	}
	order := ring.Successors(seed, c.cfg.Retries+1)
	var lastErr error
	for i, name := range order {
		if i > 0 {
			c.replicas[name].retries.Add(1)
			c.obs.Events.Record("retry", at.TraceID(), map[string]string{
				"seed":    strconv.Itoa(seed),
				"shard":   name,
				"attempt": strconv.Itoa(i + 1),
				"cause":   lastErr.Error(),
			})
			bStart := c.obs.Now()
			if err := c.backoff(ctx, i, lastErr); err != nil {
				return Partial{}, err
			}
			at.AddSpan("backoff", bStart, c.obs.Now())
		}
		aStart := c.obs.Now()
		p, err := c.queryReplica(ctx, c.replicas[name], seed, topk, full)
		at.AddSpanTags("attempt", aStart, c.obs.Now(), map[string]string{
			"shard":   name,
			"attempt": strconv.Itoa(i + 1),
		})
		if err == nil {
			return p, nil
		}
		lastErr = err
		if !Retryable(err) {
			break
		}
	}
	return Partial{}, lastErr
}

// backoff waits before retry attempt i (1-based): the replica's
// Retry-After hint when it gave one, otherwise exponential from
// RetryBackoff, aborting early if the caller's context dies.
func (c *Coordinator) backoff(ctx context.Context, attempt int, lastErr error) error {
	wait := c.cfg.RetryBackoff << (attempt - 1)
	if ra := RetryAfterOf(lastErr); ra > wait {
		wait = ra
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// queryReplica runs one attempt against one replica under the per-attempt
// timeout, recording routing metrics. An attempt-timeout is reported as a
// retryable 504 BackendError rather than a caller cancellation.
func (c *Coordinator) queryReplica(ctx context.Context, rep *replica, seed, topk int, full bool) (Partial, error) {
	rep.routed.Add(1)
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	start := time.Now()
	p, err := rep.backend.Query(actx, seed, topk, full, false)
	rep.latency.Observe(time.Since(start).Seconds())
	if err != nil {
		rep.errs.Add(1)
		if actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			return Partial{}, &BackendError{
				Replica: rep.name,
				Status:  http.StatusGatewayTimeout,
				Msg:     fmt.Sprintf("attempt timed out after %v", c.cfg.AttemptTimeout),
			}
		}
		return Partial{}, err
	}
	return p, nil
}

// BatchResult is the gathered answer to a multi-seed batch query.
// Results[i] answers Seeds[i] (nil when that seed failed on the owner and
// every retried successor). Degraded is true when any seed failed; the
// ShardsOK/ShardsFailed sets say which replicas answered and which were
// involved in failures. MixedTags is true when the per-seed rankings came
// from more than one (index hash, generation) — batch entries are
// independent rankings, never merged, so a mix is reported rather than
// refused.
type BatchResult struct {
	Seeds        []int
	Results      []*Partial
	Errs         []error
	ShardsOK     []string
	ShardsFailed []string
	Degraded     bool
	MixedTags    bool
}

// Batch scatter-gathers independent single-seed queries: each seed routes
// to its own ring owner (preserving cache affinity) concurrently, and
// per-replica failures degrade the response instead of failing it.
func (c *Coordinator) Batch(ctx context.Context, seeds []int, topk int) (BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.ring.Load().Len() == 0 {
		return BatchResult{}, ErrNoReplicas
	}
	c.batches.Add(1)
	at, ctx := c.beginTrace(ctx, "cluster.batch", len(seeds))
	res := BatchResult{
		Seeds:   seeds,
		Results: make([]*Partial, len(seeds)),
		Errs:    make([]error, len(seeds)),
	}
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i, seed int) {
			defer wg.Done()
			p, err := c.Query(ctx, seed, topk, false)
			if err != nil {
				res.Errs[i] = err
				return
			}
			res.Results[i] = &p
		}(i, seed)
	}
	wg.Wait()

	okShards := map[string]bool{}
	failShards := map[string]bool{}
	tags := map[Tag]bool{}
	for i, p := range res.Results {
		if p == nil {
			res.Degraded = true
			var be *BackendError
			if errors.As(res.Errs[i], &be) {
				failShards[be.Replica] = true
			}
			continue
		}
		okShards[p.Replica] = true
		tags[p.Tag()] = true
	}
	if res.Degraded {
		c.degraded.Add(1)
		c.obs.Events.Record("degraded_batch", at.TraceID(), map[string]string{
			"seeds":  strconv.Itoa(len(seeds)),
			"failed": strconv.Itoa(len(failShards)),
		})
	}
	res.MixedTags = len(tags) > 1
	if res.MixedTags {
		c.obs.Events.Record("generation_mix", at.TraceID(), map[string]string{
			"kind": "batch", "tags": strconv.Itoa(len(tags)),
		})
	}
	res.ShardsOK = sortedKeys(okShards)
	res.ShardsFailed = sortedKeys(failShards)
	if at != nil {
		at.SetBatch(len(seeds))
		at.SetTag("shards_ok", strconv.Itoa(len(res.ShardsOK)))
		if res.Degraded {
			at.SetTag("degraded", "true")
		}
		at.Finish(c.obs.Now())
	}
	return res, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merged is a personalized query assembled from per-seed partials.
type Merged struct {
	Top []server.RankedEntry
	// Tag is the single (index hash, generation) every merged partial
	// carried.
	Tag Tag
	// Replicas are the shards that contributed partials.
	Replicas []string
	// Refetched counts partials re-queried to converge on one tag.
	Refetched int
	// CacheHits counts partials served from replica caches.
	CacheHits int
	// Mode says how the merge was assembled: "rank" (per-shard top-k lists,
	// first candidate width), "rank-escalated" (lists had to be re-fetched
	// wider once), or "full" (full score vectors — the fallback, or forced
	// by Config.FullVectorMerge). All modes return identical rankings.
	Mode string
}

// Personalized answers a multi-seed PPR query by linear decomposition:
// RWR is linear in the restart vector, so ppr(Σᵢ wᵢ·eᵢ) = Σᵢ wᵢ·ppr(eᵢ),
// and each single-seed solve routes to the replica that owns that seed —
// exactly the per-seed cache the affinity routing has been warming.
//
// By default the coordinator gathers per-seed top-k' RANKINGS (k' a small
// multiple of the requested k, with exact full-tolerance scores) instead
// of full score vectors, and merges them threshold-algorithm style: a
// node's merged lower bound sums the list entries that name it, its upper
// bound adds each absent list's tail score. When the k selected nodes are
// covered by every list and their exact merged scores strictly clear
// every other candidate's upper bound (and the all-tails bound on unseen
// nodes), the ranking is provably identical to the full-vector merge —
// and moved k'·|seeds| ranked entries over the wire instead of
// |seeds|·N scores. If the certificate does not close, the candidate
// lists are re-fetched once at 4× the width; if it still does not close
// (massive ties, near-uniform scores), the coordinator falls back to the
// full-vector merge, so exactness never depends on the fast path.
//
// Merging is generation-guarded in every mode: every partial must carry
// the same (index hash, generation) tag. If a rebuild swaps engines
// mid-gather, the minority partials are re-fetched once (a swapped
// replica answers the re-fetch from its new engine); if the gather still
// straddles generations — e.g. a rolling rebuild where some replicas
// haven't swapped yet — the merge is refused with ErrGenerationMix rather
// than ever summing scores from two different indexes.
func (c *Coordinator) Personalized(ctx context.Context, weights map[int]float64, topk int) (Merged, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.ring.Load().Len() == 0 {
		return Merged{}, ErrNoReplicas
	}
	if len(weights) == 0 {
		return Merged{}, &BackendError{Status: http.StatusBadRequest, Msg: "weights must be non-empty"}
	}
	var sum float64
	for node, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return Merged{}, &BackendError{Status: http.StatusBadRequest, Msg: fmt.Sprintf("weight for node %d must be finite and non-negative", node)}
		}
		sum += w
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		return Merged{}, &BackendError{Status: http.StatusBadRequest, Msg: "weights must sum to a positive finite value"}
	}

	seeds := make([]int, 0, len(weights))
	for node := range weights {
		seeds = append(seeds, node)
	}
	sort.Ints(seeds)
	if topk <= 0 {
		topk = 10
	}

	at, ctx := c.beginTrace(ctx, "cluster.personalized", len(seeds))
	m, err := c.merge(ctx, weights, sum, seeds, topk)
	if at != nil {
		if err != nil {
			at.SetErr(err)
		} else {
			at.SetBatch(len(seeds))
			at.SetTag("mode", m.Mode)
			at.SetTag("generation", strconv.FormatUint(m.Tag.Gen, 10))
			if m.Refetched > 0 {
				at.SetTag("refetched", strconv.Itoa(m.Refetched))
			}
		}
		at.Finish(c.obs.Now())
	}
	return m, err
}

// merge runs the personalized merge under an already-opened trace context:
// the rank merge first (unless disabled), the full-vector merge as the
// certified-exact fallback.
func (c *Coordinator) merge(ctx context.Context, weights map[int]float64, sum float64, seeds []int, topk int) (Merged, error) {
	if !c.cfg.FullVectorMerge {
		if m, ok, err := c.rankMerge(ctx, weights, sum, seeds, topk); err != nil {
			return Merged{}, err
		} else if ok {
			return m, nil
		}
		c.fullFallbacks.Add(1)
	}
	return c.fullMerge(ctx, weights, sum, seeds, topk)
}

// gather fetches one partial per seed concurrently (ranking of width topk
// when full is false, the whole score vector otherwise) and enforces the
// generation guard: every partial must end up under one (index hash,
// generation) tag, with one re-fetch pass for the minority side of a
// mid-gather engine swap. A failed partial fails the gather — a weighted
// sum missing one component is silently wrong (unlike Batch, whose
// entries are independent).
func (c *Coordinator) gather(ctx context.Context, seeds []int, topk int, full bool) ([]Partial, int, error) {
	partials := make([]Partial, len(seeds))
	errs := make([]error, len(seeds))
	fetch := func(idxs []int) {
		var wg sync.WaitGroup
		for _, i := range idxs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				partials[i], errs[i] = c.Query(ctx, seeds[i], topk, full)
			}(i)
		}
		wg.Wait()
	}
	all := make([]int, len(seeds))
	for i := range all {
		all[i] = i
	}
	fetch(all)
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: partial for seed %d: %w", seeds[i], err)
		}
	}
	refetched := 0
	stale := mismatched(partials)
	if len(stale) > 0 {
		refetched = len(stale)
		c.refetches.Add(int64(refetched))
		traceID := ""
		if tc, ok := obs.TraceFrom(ctx); ok {
			traceID = tc.TraceID
		}
		c.obs.Events.Record("generation_refetch", traceID, map[string]string{
			"partials": strconv.Itoa(len(partials)),
			"stale":    strconv.Itoa(refetched),
		})
		fetch(stale)
		for _, i := range stale {
			if errs[i] != nil {
				return nil, 0, fmt.Errorf("cluster: re-fetch for seed %d: %w", seeds[i], errs[i])
			}
		}
		if len(mismatched(partials)) > 0 {
			c.mixRefused.Add(1)
			c.obs.Events.Record("generation_mix", traceID, map[string]string{
				"kind": "merge", "partials": strconv.Itoa(len(partials)),
			})
			return nil, 0, ErrGenerationMix
		}
	}
	return partials, refetched, nil
}

// fullMerge is the full-vector merge: gather every seed's whole score
// vector, weighted-sum them, rank. The reference path the rank merge must
// match bit-for-bit.
func (c *Coordinator) fullMerge(ctx context.Context, weights map[int]float64, sum float64, seeds []int, topk int) (Merged, error) {
	partials, refetched, err := c.gather(ctx, seeds, 0, true)
	if err != nil {
		return Merged{}, err
	}
	c.merges.Add(1)
	merged := make([]float64, len(partials[0].Scores))
	shards := map[string]bool{}
	hits := 0
	for i, p := range partials {
		w := weights[seeds[i]] / sum
		if len(p.Scores) != len(merged) {
			// Same tag implies same node count; a length mismatch means a
			// replica is serving a different graph under the same tag.
			return Merged{}, fmt.Errorf("cluster: replica %s returned %d scores, want %d",
				p.Replica, len(p.Scores), len(merged))
		}
		for n, s := range p.Scores {
			merged[n] += w * s
		}
		shards[p.Replica] = true
		if p.Cached {
			hits++
		}
	}
	isSeed := make(map[int]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
	}
	ranked := core.RankTopKFunc(merged, topk, func(node int) bool {
		return isSeed[node] || merged[node] <= 0
	})
	top := make([]server.RankedEntry, len(ranked))
	for i, t := range ranked {
		top[i] = server.RankedEntry{Node: t.Node, Score: t.Score}
	}
	return Merged{
		Top:       top,
		Tag:       partials[0].Tag(),
		Replicas:  sortedKeys(shards),
		Refetched: refetched,
		CacheHits: hits,
		Mode:      "full",
	}, nil
}

// rankMergeBaseWidth is the minimum per-seed candidate-list width the rank
// merge fetches; wider lists close the certificate more often at the cost
// of bandwidth, and the width also scales with the requested k.
const rankMergeBaseWidth = 64

// rankMerge attempts the threshold-algorithm merge over per-seed top-k'
// lists with exact scores. ok=false (with nil error) means the exactness
// certificate did not close even after one escalation and the caller
// should fall back to the full-vector merge.
func (c *Coordinator) rankMerge(ctx context.Context, weights map[int]float64, sum float64, seeds []int, topk int) (Merged, bool, error) {
	width := 4 * topk
	if width < rankMergeBaseWidth {
		width = rankMergeBaseWidth
	}
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			width *= 4
			c.rankEscalations.Add(1)
		}
		partials, refetched, err := c.gather(ctx, seeds, width, false)
		if err != nil {
			return Merged{}, false, err
		}
		top, ok := mergeRanked(partials, seeds, weights, sum, width, topk)
		if !ok {
			continue
		}
		c.merges.Add(1)
		c.rankMerges.Add(1)
		shards := map[string]bool{}
		hits := 0
		for _, p := range partials {
			shards[p.Replica] = true
			if p.Cached {
				hits++
			}
		}
		mode := "rank"
		if attempt > 0 {
			mode = "rank-escalated"
		}
		return Merged{
			Top:       top,
			Tag:       partials[0].Tag(),
			Replicas:  sortedKeys(shards),
			Refetched: refetched,
			CacheHits: hits,
			Mode:      mode,
		}, true, nil
	}
	return Merged{}, false, nil
}

// mergeRanked runs the bounded merge over per-seed candidate lists and
// reports whether the result is certified identical to the full-vector
// merge.
//
// Bounds: node n's merged score is Σᵢ wᵢ·sᵢ(n) with every sᵢ(n) ≥ 0.
// For lists that contain n the term is exact; a list of full width that
// omits n bounds its term by wᵢ·tᵢ (tᵢ = the list's weakest score), and a
// list shorter than the requested width is the replica's complete ranking,
// so omission there means the term is exactly 0 (n is that list's
// excluded seed — and seeds are excluded from the merged ranking anyway).
// The certificate demands (a) each selected node appears in every list,
// making its merged score exact — and summed in ascending-seed order, the
// same floating-point accumulation order as the full merge, hence
// bit-identical; and (b) the weakest selected score strictly exceeds
// every unselected candidate's upper bound and the all-tails bound on
// nodes no list surfaced. Strictness makes ties uncertifiable by design:
// equal-score sets fall back to the full merge rather than risk a
// tie-break on approximate information.
func mergeRanked(partials []Partial, seeds []int, weights map[int]float64, sum float64, width, topk int) ([]server.RankedEntry, bool) {
	m := len(partials)
	// Per-list weighted tail bounds and the bound on wholly unseen nodes.
	tails := make([]float64, m)
	unseenUB := 0.0
	for i, p := range partials {
		if len(p.Top) >= width && len(p.Top) > 0 {
			tails[i] = weights[seeds[i]] / sum * p.Top[len(p.Top)-1].Score
		}
		unseenUB += tails[i]
	}

	// Candidate table: per-list exact scores for every node any list names.
	// Missing entries are NaN (a zero score is meaningful and must not be
	// confused with absence).
	cands := map[int][]float64{}
	for i, p := range partials {
		for _, e := range p.Top {
			sc, ok := cands[e.Node]
			if !ok {
				sc = make([]float64, m)
				for j := range sc {
					sc[j] = math.NaN()
				}
				cands[e.Node] = sc
			}
			sc[i] = e.Score
		}
	}

	isSeed := make(map[int]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
	}

	type bound struct {
		lb      float64 // exact when covered
		ub      float64
		covered bool
	}
	bounds := make(map[int]bound, len(cands))
	sel := make([]core.Ranked, 0, len(cands))
	for node, sc := range cands {
		if isSeed[node] {
			continue
		}
		b := bound{covered: true}
		for i := 0; i < m; i++ {
			if math.IsNaN(sc[i]) {
				// Absent from a full-width list: bounded by its tail.
				// Absent from a short list: the list was complete, the
				// score is exactly zero (contributes to neither bound).
				b.ub += tails[i]
				if tails[i] > 0 {
					b.covered = false
				}
				continue
			}
			// Same expression and ascending-seed order as the full merge's
			// accumulation — covered nodes get bit-identical sums.
			b.lb += weights[seeds[i]] / sum * sc[i]
		}
		b.ub += b.lb
		bounds[node] = b
		sel = append(sel, core.Ranked{Node: node, Score: b.lb})
	}

	// Select the k best by lower bound under the system's total order.
	sort.Slice(sel, func(i, j int) bool { return sel[i].Outranks(sel[j]) })
	if len(sel) < topk {
		if unseenUB > 0 {
			// Not enough candidates to fill the ranking, and whether more
			// exist below the tails is unknowable from truncated lists.
			return nil, false
		}
		// Every list came back shorter than requested — each is a complete
		// ranking, so the candidate table is exhaustive and exact. The full
		// merge would return this same short ranking (it too drops
		// non-positive scores).
		topk = len(sel)
		for topk > 0 && sel[topk-1].Score <= 0 {
			topk--
		}
		if topk == 0 {
			return nil, false
		}
	}
	selected := sel[:topk]
	kth := selected[topk-1]
	if kth.Score <= unseenUB {
		return nil, false
	}
	for _, s := range selected {
		if b := bounds[s.Node]; !b.covered || b.lb <= 0 {
			return nil, false
		}
	}
	for _, u := range sel[topk:] {
		if kth.Score <= bounds[u.Node].ub {
			return nil, false
		}
	}

	top := make([]server.RankedEntry, topk)
	for i, s := range selected {
		top[i] = server.RankedEntry{Node: s.Node, Score: s.Score}
	}
	return top, true
}

// mismatched returns the indexes of partials whose tag disagrees with the
// most common tag (ties break toward the higher generation, i.e. the
// post-swap side of a rebuild).
func mismatched(partials []Partial) []int {
	counts := map[Tag]int{}
	for _, p := range partials {
		counts[p.Tag()]++
	}
	if len(counts) <= 1 {
		return nil
	}
	var want Tag
	best := -1
	for tag, n := range counts {
		if n > best || (n == best && tag.Gen > want.Gen) {
			want, best = tag, n
		}
	}
	var out []int
	for i, p := range partials {
		if p.Tag() != want {
			out = append(out, i)
		}
	}
	return out
}
