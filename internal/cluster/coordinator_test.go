package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bepi/internal/server"
)

// fakeBackend is a scriptable replica for coordinator tests.
type fakeBackend struct {
	name string
	n    int // nodes in the pretend graph

	mu         sync.Mutex
	hash       string
	gen        uint64
	staleLeft  int // answer this many queries with staleTag first
	staleTag   Tag
	failStatus int   // non-zero: Query fails with this status
	failLeft   int   // -1 = fail forever, else countdown
	healthErr  error // non-nil: Health fails
	queried    int
}

func newFake(name string, n int) *fakeBackend {
	return &fakeBackend{name: name, n: n, hash: "abc", gen: 1, failLeft: -1}
}

func (f *fakeBackend) Name() string { return f.name }

// setFail scripts the next k queries (k = -1: all) to fail with status.
func (f *fakeBackend) setFail(status, k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failStatus = status
	f.failLeft = k
}

func (f *fakeBackend) setTag(hash string, gen uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hash, f.gen = hash, gen
}

func (f *fakeBackend) queries() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queried
}

func (f *fakeBackend) Query(ctx context.Context, seed, topk int, full, exact bool) (Partial, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queried++
	if f.failStatus != 0 && f.failLeft != 0 {
		if f.failLeft > 0 {
			f.failLeft--
		}
		return Partial{}, &BackendError{Replica: f.name, Status: f.failStatus, Msg: "scripted failure"}
	}
	p := Partial{Seed: seed, Replica: f.name, Generation: f.gen, IndexHash: f.hash}
	if f.staleLeft > 0 {
		f.staleLeft--
		p.Generation, p.IndexHash = f.staleTag.Gen, f.staleTag.Hash
	}
	// A recognizable per-seed answer so merge results are checkable:
	// 0.5 at the seed, 0.25 at its ring neighbour, zero elsewhere.
	if full {
		p.Scores = make([]float64, f.n)
		p.Scores[seed%f.n] = 0.5
		p.Scores[(seed+1)%f.n] = 0.25
	} else {
		p.Top = []server.RankedEntry{
			{Node: seed % f.n, Score: 0.5},
			{Node: (seed + 1) % f.n, Score: 0.25},
		}
		if topk > 0 && topk < len(p.Top) {
			p.Top = p.Top[:topk]
		}
	}
	return p, nil
}

func (f *fakeBackend) Health(ctx context.Context) (Health, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.healthErr != nil {
		return Health{}, f.healthErr
	}
	return Health{Nodes: f.n, Generation: f.gen, IndexHash: f.hash}, nil
}

// testConfig keeps retries fast and the background checker off so tests
// drive membership deterministically via CheckNow.
func testConfig() Config {
	return Config{HealthInterval: -1, RetryBackoff: time.Millisecond}
}

func newTestCoordinator(t *testing.T, cfg Config, fakes ...*fakeBackend) *Coordinator {
	t.Helper()
	backends := make([]Backend, len(fakes))
	for i, f := range fakes {
		backends[i] = f
	}
	c, err := New(backends, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestCoordinatorAffinity: every query for a seed lands on the seed's ring
// owner, and repeated queries never wander.
func TestCoordinatorAffinity(t *testing.T) {
	fakes := []*fakeBackend{newFake("r0", 100), newFake("r1", 100), newFake("r2", 100)}
	c := newTestCoordinator(t, testConfig(), fakes...)
	for seed := 0; seed < 200; seed++ {
		want := c.Ring().Owner(seed)
		for rep := 0; rep < 3; rep++ {
			p, err := c.Query(context.Background(), seed, 10, false)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if p.Replica != want {
				t.Fatalf("seed %d served by %q, owner is %q", seed, p.Replica, want)
			}
		}
	}
}

// TestCoordinatorRetryToSuccessor: a failing owner is retried on the ring
// successor; the answer comes back and the retry is counted.
func TestCoordinatorRetryToSuccessor(t *testing.T) {
	fakes := map[string]*fakeBackend{
		"r0": newFake("r0", 10), "r1": newFake("r1", 10), "r2": newFake("r2", 10),
	}
	c := newTestCoordinator(t, testConfig(), fakes["r0"], fakes["r1"], fakes["r2"])
	seed := 0
	order := c.Ring().Successors(seed, 3)
	fakes[order[0]].setFail(http.StatusServiceUnavailable, -1)

	p, err := c.Query(context.Background(), seed, 10, false)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if p.Replica != order[1] {
		t.Fatalf("served by %q, want first successor %q", p.Replica, order[1])
	}
	var retried int64
	for _, rs := range c.Replicas() {
		retried += rs.Retries
	}
	if retried == 0 {
		t.Fatal("retry not counted")
	}
}

// TestCoordinatorNonRetryableFailsFast: validation errors (4xx) never walk
// the ring — the successor would reject identically.
func TestCoordinatorNonRetryableFailsFast(t *testing.T) {
	fakes := []*fakeBackend{newFake("r0", 10), newFake("r1", 10)}
	for _, f := range fakes {
		f.setFail(http.StatusBadRequest, -1)
	}
	c := newTestCoordinator(t, testConfig(), fakes...)
	_, err := c.Query(context.Background(), 3, 10, false)
	var be *BackendError
	if !errors.As(err, &be) || be.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 BackendError", err)
	}
	if total := fakes[0].queries() + fakes[1].queries(); total != 1 {
		t.Fatalf("%d attempts for a non-retryable error, want 1", total)
	}
}

// TestCoordinatorBatchPartialFailure: with retries disabled, seeds owned by
// a broken replica fail individually; the batch degrades instead of failing
// and reports which shards answered.
func TestCoordinatorBatchPartialFailure(t *testing.T) {
	fakes := map[string]*fakeBackend{
		"r0": newFake("r0", 100), "r1": newFake("r1", 100), "r2": newFake("r2", 100),
	}
	cfg := testConfig()
	cfg.Retries = -1 // no retry: failures must surface as degraded entries
	c := newTestCoordinator(t, cfg, fakes["r0"], fakes["r1"], fakes["r2"])
	bad := c.Ring().Owner(0)
	fakes[bad].setFail(http.StatusInternalServerError, -1)

	seeds := make([]int, 60)
	for i := range seeds {
		seeds[i] = i
	}
	res, err := c.Batch(context.Background(), seeds, 5)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if !res.Degraded {
		t.Fatal("batch with a dead shard must be degraded")
	}
	if len(res.ShardsFailed) != 1 || res.ShardsFailed[0] != bad {
		t.Fatalf("ShardsFailed = %v, want [%s]", res.ShardsFailed, bad)
	}
	if len(res.ShardsOK) != 2 {
		t.Fatalf("ShardsOK = %v, want the two live shards", res.ShardsOK)
	}
	ring := c.Ring()
	for i, seed := range seeds {
		owner := ring.Owner(seed)
		if owner == bad {
			if res.Results[i] != nil || res.Errs[i] == nil {
				t.Fatalf("seed %d owned by dead shard: want a per-seed error", seed)
			}
		} else if res.Results[i] == nil {
			t.Fatalf("seed %d owned by live shard %q failed: %v", seed, owner, res.Errs[i])
		}
	}
}

// TestCoordinatorEjectionReadmission: consecutive health-probe failures
// eject a replica from the ring (its keys move to survivors); consecutive
// successes readmit it (keys move back).
func TestCoordinatorEjectionReadmission(t *testing.T) {
	fakes := map[string]*fakeBackend{
		"r0": newFake("r0", 100), "r1": newFake("r1", 100), "r2": newFake("r2", 100),
	}
	c := newTestCoordinator(t, testConfig(), fakes["r0"], fakes["r1"], fakes["r2"])
	victim := c.Ring().Owner(42)
	fakes[victim].mu.Lock()
	fakes[victim].healthErr = errors.New("probe refused")
	fakes[victim].mu.Unlock()

	ctx := context.Background()
	for i := 0; i < c.cfg.FailThreshold-1; i++ {
		c.CheckNow(ctx)
		if !c.Ring().Has(victim) {
			t.Fatalf("ejected after %d failures, threshold is %d", i+1, c.cfg.FailThreshold)
		}
	}
	c.CheckNow(ctx)
	if c.Ring().Has(victim) {
		t.Fatal("not ejected at FailThreshold")
	}
	// Ejected replica's keys now route to survivors.
	p, err := c.Query(ctx, 42, 10, false)
	if err != nil {
		t.Fatalf("Query after ejection: %v", err)
	}
	if p.Replica == victim {
		t.Fatal("query routed to ejected replica")
	}

	fakes[victim].mu.Lock()
	fakes[victim].healthErr = nil
	fakes[victim].mu.Unlock()
	for i := 0; i < c.cfg.ReadmitThreshold; i++ {
		c.CheckNow(ctx)
	}
	if !c.Ring().Has(victim) {
		t.Fatal("not readmitted after ReadmitThreshold successes")
	}
	p, err = c.Query(ctx, 42, 10, false)
	if err != nil {
		t.Fatalf("Query after readmission: %v", err)
	}
	if p.Replica != victim {
		t.Fatalf("seed 42 served by %q after readmission, want owner %q back", p.Replica, victim)
	}
	var ej, re int64
	for _, rs := range c.Replicas() {
		ej += rs.Ejections
		re += rs.Readmissions
	}
	if ej != 1 || re != 1 {
		t.Fatalf("ejections=%d readmissions=%d, want 1/1", ej, re)
	}
}

// TestCoordinatorAllEjected: an empty ring answers ErrNoReplicas instead of
// hanging or panicking.
func TestCoordinatorAllEjected(t *testing.T) {
	f := newFake("r0", 10)
	f.healthErr = errors.New("down")
	c := newTestCoordinator(t, testConfig(), f)
	for i := 0; i < c.cfg.FailThreshold; i++ {
		c.CheckNow(context.Background())
	}
	if _, err := c.Query(context.Background(), 1, 10, false); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
	if _, err := c.Batch(context.Background(), []int{1}, 10); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("batch err = %v, want ErrNoReplicas", err)
	}
}

// TestCoordinatorPersonalizedMerge: the linearity merge sums weighted
// per-seed vectors from the owning replicas under one tag.
func TestCoordinatorPersonalizedMerge(t *testing.T) {
	fakes := []*fakeBackend{newFake("r0", 10), newFake("r1", 10), newFake("r2", 10)}
	c := newTestCoordinator(t, testConfig(), fakes...)
	m, err := c.Personalized(context.Background(), map[int]float64{2: 1, 7: 3}, 5)
	if err != nil {
		t.Fatalf("Personalized: %v", err)
	}
	if m.Tag.Hash != "abc" || m.Tag.Gen != 1 {
		t.Fatalf("tag = %v, want abc@g1", m.Tag)
	}
	// Seeds 2 and 7 contribute 0.5 at themselves (excluded as seeds) and
	// 0.25 at seed+1; weights normalize to 1/4 and 3/4.
	want3, want8 := 0.25*0.25, 0.75*0.25
	got := map[int]float64{}
	for _, e := range m.Top {
		got[e.Node] = e.Score
	}
	if len(got) != 2 {
		t.Fatalf("top = %v, want nodes 3 and 8 only", m.Top)
	}
	const eps = 1e-12
	if d := got[3] - want3; d > eps || d < -eps {
		t.Fatalf("node 3 score %v, want %v", got[3], want3)
	}
	if d := got[8] - want8; d > eps || d < -eps {
		t.Fatalf("node 8 score %v, want %v", got[8], want8)
	}
}

// TestCoordinatorGenerationMixRefused is the merge-guard regression: when
// replicas persistently disagree on (index hash, generation) — a rolling
// rebuild window — the personalized merge must refuse rather than sum
// scores from two different indexes.
func TestCoordinatorGenerationMixRefused(t *testing.T) {
	fakes := []*fakeBackend{newFake("r0", 10), newFake("r1", 10), newFake("r2", 10)}
	c := newTestCoordinator(t, testConfig(), fakes...)
	// Seeds 0..9 spread across replicas; find two owned by different
	// replicas and put their owners on different generations.
	ring := c.Ring()
	seedA := 0
	seedB := -1
	for s := 1; s < 10; s++ {
		if ring.Owner(s) != ring.Owner(seedA) {
			seedB = s
			break
		}
	}
	if seedB < 0 {
		t.Skip("all probe seeds landed on one replica")
	}
	for _, f := range fakes {
		if f.name == ring.Owner(seedB) {
			f.setTag("abc", 2) // one generation ahead, persistently
		}
	}
	_, err := c.Personalized(context.Background(), map[int]float64{seedA: 1, seedB: 1}, 5)
	if !errors.Is(err, ErrGenerationMix) {
		t.Fatalf("err = %v, want ErrGenerationMix", err)
	}
}

// TestCoordinatorGenerationMixHealedByRefetch: a transient mix — the
// minority replica finishes its swap between the first gather and the
// re-fetch — converges instead of failing.
func TestCoordinatorGenerationMixHealedByRefetch(t *testing.T) {
	fakes := []*fakeBackend{newFake("r0", 10), newFake("r1", 10), newFake("r2", 10)}
	c := newTestCoordinator(t, testConfig(), fakes...)
	ring := c.Ring()
	seedA := 0
	seedB := -1
	for s := 1; s < 10; s++ {
		if ring.Owner(s) != ring.Owner(seedA) {
			seedB = s
			break
		}
	}
	if seedB < 0 {
		t.Skip("all probe seeds landed on one replica")
	}
	// Everyone is on generation 2, but seedB's owner answers its first
	// query with the pre-swap tag — the shape of a swap completing between
	// the first gather and the re-fetch.
	for _, f := range fakes {
		f.setTag("abc", 2)
		if f.name == ring.Owner(seedB) {
			f.mu.Lock()
			f.staleLeft = 1
			f.staleTag = Tag{Hash: "abc", Gen: 1}
			f.mu.Unlock()
		}
	}
	m, err := c.Personalized(context.Background(), map[int]float64{seedA: 1, seedB: 1}, 5)
	if err != nil {
		t.Fatalf("Personalized: %v", err)
	}
	if m.Refetched == 0 {
		t.Fatal("expected the stale partial to be re-fetched")
	}
	if m.Tag.Gen != 2 {
		t.Fatalf("merged at generation %d, want the post-swap generation 2", m.Tag.Gen)
	}
}

// TestCoordinatorOversizeBodiesRejected: the coordinator's /batch and
// /personalized refuse a body beyond server.MaxBodyBytes with 413 before
// any replica is queried, even when the body is otherwise valid JSON.
func TestCoordinatorOversizeBodiesRejected(t *testing.T) {
	f := newFake("a", 16)
	h := NewHandler(newTestCoordinator(t, testConfig(), f))
	pad := strings.Repeat("x", server.MaxBodyBytes)
	for path, body := range map[string]string{
		"/batch":        `{"seeds":[1],"topk":2,"pad":"` + pad + `"}`,
		"/personalized": `{"weights":{"1":1},"topk":2,"pad":"` + pad + `"}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d want 413: %.200s", path, rec.Code, rec.Body.String())
		}
	}
	if q := f.queries(); q != 0 {
		t.Fatalf("oversize bodies reached the replica %d times", q)
	}
}
