package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bepi"
	"bepi/internal/cluster"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// The serve-zipf traffic is an open loop stepping up a fixed ladder of
// arrival rates, 40 to 800 requests/s in steps of 40. The first rate is
// the reference rate, below the knee, where request latency is reported.
// The ladder stops after the first rate that misses the latency limit or
// falls behind its schedule: past the knee the queues fill and the
// replicas start refusing requests. It reaches past the rate at which the
// replicas shed requests, so a faster program can climb it; the rungs
// above the knee are never run.
var serveLadder = func() []float64 {
	var l []float64
	for r := 40.0; r <= 800; r += 40 {
		l = append(l, r)
	}
	return l
}()

const (
	serveLimit    = 50 * time.Millisecond // p95 latency limit of the sustainable rate
	serveTopK     = 10
	zipfS         = 1.1  // seed popularity exponent
	serveInflight = 4096 // requests in flight beyond this are refused by the client
	serveSampleP  = 64   // one measured request in this many is kept for the oracle
	serveChecks   = 32   // distinct seeds the oracle recomputes
	serveReplicas = 2
)

// phase is a stretch of requests at one rate.
type phase struct {
	rate  float64
	dur   time.Duration
	seeds []int
}

// rungStats is one phase's outcome.
type rungStats struct {
	rate                   float64
	sent, ok, shed, failed int
	p50, tail              float64 // ms from due time (tail windowed); failed requests count as +Inf
	pooledTail, p99        float64 // the tail quantile and p99 over the whole phase
	meanMS                 float64 // mean latency of the successful requests
	maxLateMS              float64 // how late the generator sent a request (printed only)
	outstanding            int     // requests unfinished when the schedule ended
	backlogged, meets      bool
}

// serveRig is the in-process serving stack: one engine shared by two
// LocalBackend replicas, each a server.Core with its own default executor
// and observer, behind a coordinator and its HTTP handler.
type serveRig struct {
	cores   []*server.Core
	coord   *cluster.Coordinator
	handler http.Handler
	rec     *recorder // nil unless traced

	reqs    atomic.Int64 // request ids for spans
	mu      sync.Mutex
	samples []oracleSample // answers kept for the oracle
}

// oracleSample is a served answer kept for checking.
type oracleSample struct {
	seed  int
	nodes []int
}

func newServeRig(eng *bepi.Engine, rec *recorder) (*serveRig, error) {
	rig := &serveRig{rec: rec}
	var backends []cluster.Backend
	for i := 0; i < serveReplicas; i++ {
		c := server.NewCore(eng, qexec.Config{})
		rig.cores = append(rig.cores, c)
		var b cluster.Backend = cluster.NewLocalBackend(fmt.Sprintf("r%d", i), c)
		if rec != nil {
			b = &timedBackend{Backend: b, rec: rec}
		}
		backends = append(backends, b)
	}
	coord, err := cluster.New(backends, cluster.Config{})
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.coord = coord
	rig.handler = cluster.NewHandler(coord)
	return rig, nil
}

func (r *serveRig) close() {
	if r.coord != nil {
		r.coord.Close()
	}
	for _, c := range r.cores {
		c.Close()
	}
}

// spanCtx carries a traced request's ids from the generator to the
// backend decorator.
type spanCtx struct{ req, parent int64 }

type spanCtxKey struct{}

// timedBackend records a span around every replica call.
type timedBackend struct {
	cluster.Backend
	rec *recorder
}

func (b *timedBackend) Query(ctx context.Context, seed, topk int, full, exact bool) (cluster.Partial, error) {
	t0 := time.Now()
	p, err := b.Backend.Query(ctx, seed, topk, full, exact)
	if sc, ok := ctx.Value(spanCtxKey{}).(spanCtx); ok {
		b.rec.add(sc.parent, sc.req, "cluster.backend", t0, time.Now())
	}
	return p, err
}

// runPhase issues the phase's requests on schedule from one generator,
// each served on its own goroutine as a server would, and waits for all of
// them. keep picks the requests whose answers the oracle checks. Latency
// runs from the time a request was due, so a late generator shows.
func (r *serveRig) runPhase(ph phase, keep func() bool) (rungStats, error) {
	st := rungStats{rate: ph.rate}
	period := time.Duration(float64(time.Second) / ph.rate)
	count := int(ph.dur / period)
	lat := make([]float64, count)
	code := make([]int, count)
	var inflight, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.maxLateMS = math.Max(st.maxLateMS, ms(time.Since(due)))
		st.sent++
		if inflight.Load() >= serveInflight {
			completed.Add(1) // refused: code stays 0, counted as failed
			continue
		}
		seed, k := ph.seeds[i%len(ph.seeds)], keep()
		inflight.Add(1)
		wg.Add(1)
		go func(i, seed int, due time.Time, k bool) {
			defer wg.Done()
			defer inflight.Add(-1)
			defer completed.Add(1)
			c, nodes := r.serveOne(seed, k)
			lat[i], code[i] = ms(time.Since(due)), c
			if k && c == http.StatusOK {
				r.mu.Lock()
				r.samples = append(r.samples, oracleSample{seed: seed, nodes: nodes})
				r.mu.Unlock()
			}
		}(i, seed, due, k)
	}
	if d := time.Until(start.Add(time.Duration(count) * period)); d > 0 {
		time.Sleep(d)
	}
	st.outstanding = int(int64(count) - completed.Load())
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return st, fmt.Errorf("requests at %.0f/s did not drain within 60s", ph.rate)
	}
	var okLat []float64
	for i := range lat {
		switch code[i] {
		case http.StatusOK:
			st.ok++
			okLat = append(okLat, lat[i])
			continue
		case http.StatusTooManyRequests:
			st.shed++
		default:
			st.failed++
		}
		lat[i] = math.Inf(1)
	}
	st.p50, st.tail = quantile(lat, 0.5), windowedTail(lat)
	st.pooledTail, st.p99 = quantile(lat, serveTailQ), quantile(lat, 0.99)
	st.meanMS = mean(okLat)
	// A backlog is more queued work at the end of the schedule than one
	// latency limit's worth of arrivals.
	st.backlogged = float64(st.outstanding) > math.Max(8, ph.rate*serveLimit.Seconds())
	st.meets = st.tail <= ms(serveLimit) && !st.backlogged
	return st, nil
}

// The tail is p95 taken over serveWindows equal time windows of a phase,
// and the median of the windows' p95s is reported. p95 is the highest
// percentile with at least ten samples beyond it in each window of the
// reference phase. Windows, because a stalled host (a descheduled vCPU)
// delays every request due during the stall, and one stall can own the top
// percent of a whole phase; the median window moves with the program
// rather than with the host.
const (
	serveTailQ   = 0.95
	serveWindows = 3
)

// windowedTail returns the median over serveWindows consecutive windows of
// each window's serveTailQ quantile.
func windowedTail(lat []float64) float64 {
	var ps []float64
	for w := 0; w < serveWindows; w++ {
		if win := lat[w*len(lat)/serveWindows : (w+1)*len(lat)/serveWindows]; len(win) > 0 {
			ps = append(ps, quantile(win, serveTailQ))
		}
	}
	return quantile(ps, 0.5)
}

// serveOne sends one GET /query through the handler and returns the
// status and, when decode is set, the returned top nodes.
func (r *serveRig) serveOne(seed int, decode bool) (int, []int) {
	url := "/query?seed=" + strconv.Itoa(seed) + "&topk=" + strconv.Itoa(serveTopK)
	w := httptest.NewRecorder()
	if r.rec == nil {
		r.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		return w.Code, decodeTop(w, decode)
	}
	// Traced: force a coordinator trace so its record can be matched to
	// this request, and hand the span ids to the backend decorator.
	req, httpID, coordID := r.reqs.Add(1), r.rec.id(), r.rec.id()
	ctx := context.WithValue(context.Background(), spanCtxKey{}, spanCtx{req: req, parent: coordID})
	hr := httptest.NewRequest(http.MethodGet, url+"&trace=1", nil).WithContext(ctx)
	t0 := time.Now()
	r.handler.ServeHTTP(w, hr)
	r.rec.record(httpID, 0, req, "cluster.http", t0, time.Now())
	if trs := r.coord.Observer().Tracer.ByTraceID(w.Header().Get(obs.TraceHeader), 1); len(trs) == 1 {
		r.rec.record(coordID, httpID, req, "cluster.coordinator", trs[0].Time, trs[0].Time.Add(trs[0].Total))
	}
	return w.Code, decodeTop(w, decode)
}

// decodeTop returns the node ids of a /query answer (nil when not asked
// or unreadable, which the oracle then rejects).
func decodeTop(w *httptest.ResponseRecorder, decode bool) []int {
	if !decode || w.Code != http.StatusOK {
		return nil
	}
	var p cluster.Partial
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		return nil
	}
	nodes := make([]int, len(p.Top))
	for i, t := range p.Top {
		nodes[i] = t.Node
	}
	return nodes
}

// seedLaw draws request seeds whose popularity follows Zipf's law with
// exponent zipfS over the nodes that have out-edges: a hot head and a long
// cold tail, in a popularity order drawn once and fixed for the run.
// Deadends are not asked for: their answer is the seed alone, which no
// client of a top-10 service requests.
type seedLaw struct {
	z     *rand.Zipf
	order []int // order[k] is the node of popularity rank k
}

func newSeedLaw(rng *rand.Rand, g *bepi.Graph) *seedLaw {
	var order []int
	for u := 0; u < g.N(); u++ {
		if g.OutDegree(u) > 0 {
			order = append(order, u)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &seedLaw{z: rand.NewZipf(rng, zipfS, 1, uint64(len(order)-1)), order: order}
}

// draw returns the seeds of n requests.
func (l *seedLaw) draw(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = l.order[l.z.Uint64()]
	}
	return out
}

// runServeZipf is the serve-zipf workload: a warm-up at the reference
// rate, then the ladder. Traced, it first runs the reference rate
// untraced for the overhead ratio, then warms and runs the ladder on a
// rig whose requests and replica calls are recorded as spans.
func runServeZipf(cfg config) (*report, error) {
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
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		if err := tracePreprocess(rec, rep, in.g, eng.Internal().Options()); err != nil {
			return nil, err
		}
	}

	// Phase lengths: a warm-up, the reference rate long enough for a p95
	// with ten samples beyond it in every window, and a fixed length for
	// every later rung. The run measures about --seconds when the ladder
	// stops near 240/s; a program that climbs higher runs longer.
	total := cfg.duration()
	warm := phase{rate: serveLadder[0], dur: total * 6 / 100}
	rungs := make([]phase, len(serveLadder))
	rungs[0] = phase{rate: serveLadder[0], dur: total * 50 / 100}
	for i := 1; i < len(rungs); i++ {
		rungs[i] = phase{rate: serveLadder[i], dur: total * 7 / 100}
	}
	law := newSeedLaw(rand.New(rand.NewSource(cfg.seed)), in.g)
	warm.seeds = law.draw(int(warm.rate*warm.dur.Seconds()) + 1)
	for i := range rungs {
		rungs[i].seeds = law.draw(int(rungs[i].rate*rungs[i].dur.Seconds()) + 1)
	}
	keepRng := rand.New(rand.NewSource(cfg.seed + 1))
	keep := func() bool { return keepRng.Intn(serveSampleP) == 0 }
	none := func() bool { return false }

	rig, err := newServeRig(eng, nil)
	if err != nil {
		return nil, err
	}
	defer func() { rig.close() }()
	tally := func(st rungStats) {
		rep.attempted += int64(st.sent)
		rep.failed += int64(st.sent - st.ok)
	}
	// The warm-up fills the caches and calibrates the top-k certificate.
	st, err := rig.runPhase(warm, none)
	if err != nil {
		return nil, err
	}
	tally(st)
	var plainMeanMS float64
	if cfg.trace {
		plain, err := rig.runPhase(rungs[0], none)
		if err != nil {
			return nil, err
		}
		tally(plain)
		plainMeanMS = plain.meanMS
		rig.close()
		if rig, err = newServeRig(eng, rec); err != nil {
			return nil, err
		}
		if st, err = rig.runPhase(warm, none); err != nil {
			return nil, err
		}
		tally(st)
	}

	before := rig.snapshot()
	var stats []rungStats
	for _, ph := range rungs {
		st, err := rig.runPhase(ph, keep)
		if err != nil {
			return nil, err
		}
		tally(st)
		stats = append(stats, st)
		rep.notef("rate %4.0f/s: sent %5d ok %5d shed %3d failed %3d  p50 %6.2fms p95 %7.2fms (pooled %7.2fms)  generator late max %6.2fms  outstanding at end %4d  backlog %-5v meets %v",
			st.rate, st.sent, st.ok, st.shed, st.failed, st.p50, st.tail, st.pooledTail, st.maxLateMS, st.outstanding, st.backlogged, st.meets)
		if !st.meets {
			break
		}
	}
	after := rig.snapshot()
	checkServeSamples(rep, eng, newOracle(in.n, in.edges), rig.samples)

	if cfg.trace {
		rig.setLayerMetrics(rep, before, after)
		if plainMeanMS > 0 {
			rep.set("obs.trace_overhead_ratio", stats[0].meanMS/plainMeanMS)
		}
		return rep, rec.writeTo(cfg.spans)
	}
	rep.set("latency_p50_ms", stats[0].p50)
	rep.set("throughput_qps", sustainableRate(stats))
	rep.alias("serve_p50_ms", stats[0].p50, "ms", "reported as latency_p50_ms")
	rep.alias("serve_p95_ms", stats[0].tail, "ms", "windowed, printed only")
	rep.alias("serve_p99_ms", stats[0].p99, "ms", "printed only")
	rep.alias("serve_max_qps", rep.values["throughput_qps"], "1/s", "reported as throughput_qps")
	return rep, nil
}

// sustainableRate estimates the highest rate whose tail meets the limit
// with no backlog. Between the last rate that met it and the first that
// did not (where the ladder stopped), it interpolates on a log-log scale
// where the tail crosses the limit, so the figure moves continuously with
// the program. The first failing rate's tail is its pooled one when that
// is larger: a backlog shows there first.
func sustainableRate(stats []rungStats) float64 {
	j := -1
	for j+1 < len(stats) && stats[j+1].meets {
		j++
	}
	switch {
	case j < 0:
		return stats[0].rate / 2
	case j == len(stats)-1:
		return stats[j].rate
	}
	lo, hi := stats[j], stats[j+1]
	hiTail := math.Max(hi.tail, hi.pooledTail)
	if math.IsInf(hiTail, 0) || hiTail <= lo.tail {
		return lo.rate
	}
	f := math.Log(ms(serveLimit)/lo.tail) / math.Log(hiTail/lo.tail)
	return lo.rate * math.Pow(hi.rate/lo.rate, math.Max(0, math.Min(1, f)))
}

// checkServeSamples has the oracle recompute the kept answers: the seed's
// full score vector must pass the residual check, and the served top-10
// set must match Engine.TopK on the same seed.
func checkServeSamples(rep *report, eng *bepi.Engine, orc *oracle, samples []oracleSample) {
	checked := map[int][]float64{}
	n := 0
	for _, s := range samples {
		r, ok := checked[s.seed]
		if !ok {
			if len(checked) >= serveChecks {
				continue
			}
			var err error
			if r, err = eng.Query(s.seed); err != nil {
				rep.reject(fmt.Errorf("seed %d: reference query: %v", s.seed, err))
				continue
			}
			if err := orc.checkScores(s.seed, r); err != nil {
				rep.reject(err)
			}
			checked[s.seed] = r
		}
		ref, err := eng.TopK(s.seed, serveTopK)
		if err != nil {
			rep.reject(fmt.Errorf("seed %d: Engine.TopK: %v", s.seed, err))
			continue
		}
		want := make([]int, len(ref))
		for i, t := range ref {
			want[i] = t.Node
		}
		if err := checkTopSet(s.seed, s.nodes, want, r); err != nil {
			rep.reject(err)
		}
		n++
	}
	rep.notef("oracle: %d served answers checked against %d recomputed seeds", n, len(checked))
}

// rigSnapshot holds the cumulative counters the traced run takes deltas of.
type rigSnapshot struct {
	exec    qexec.Metrics
	wait    obs.HistSnapshot
	retries int64
}

func (r *serveRig) snapshot() rigSnapshot {
	var s rigSnapshot
	for i, c := range r.cores {
		m := c.Executor().Metrics()
		w := c.Executor().Observer().QueueWait.Snapshot()
		if i == 0 {
			s.exec, s.wait = m, w
			continue
		}
		var zero qexec.Metrics
		s.exec = s.exec.Delta(zero.Delta(m)) // s.exec + m
		s.wait, _ = s.wait.Merge(w)
	}
	for _, rs := range r.coord.Replicas() {
		s.retries += rs.Retries
	}
	return s
}

// setLayerMetrics reports the qexec and cluster layers over the ladder.
func (r *serveRig) setLayerMetrics(rep *report, before, after rigSnapshot) {
	d := after.exec.Delta(before.exec)
	if lookups := float64(d.CacheHits + d.CacheMisses); lookups > 0 {
		rep.set("qexec.hit_ratio", float64(d.CacheHits)/lookups)
		rep.set("qexec.coalesced_ratio", float64(d.Coalesced)/lookups)
	}
	rep.set("qexec.batch_size_mean", d.AvgBatchSize())
	rep.set("qexec.shed", float64(d.Shed))
	wait := histDelta(after.wait, before.wait)
	rep.set("qexec.queue_wait_p50_ms", 1e3*wait.Quantile(0.5))
	rep.set("qexec.queue_wait_p99_ms", 1e3*wait.Quantile(0.99))
	rep.set("cluster.retries", float64(after.retries-before.retries))
	lt := r.rec.selfTimes()
	rep.set("cluster.backend_ms", meanMS(lt, "cluster.backend"))
	rep.set("cluster.route_self_ms", meanSelfMS(lt, "cluster.coordinator"))
	rep.set("cluster.http_self_ms", meanSelfMS(lt, "cluster.http"))
}

// histDelta returns the observations recorded between two snapshots.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Bounds: after.Bounds, Counts: make([]uint64, len(after.Counts)), Sum: after.Sum - before.Sum}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
		d.Count += d.Counts[i]
	}
	return d
}
