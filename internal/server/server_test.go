package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bepi"
	"bepi/internal/obs"
	"bepi/internal/qexec"
)

func testServer(t *testing.T) (*Server, *bepi.Engine) {
	t.Helper()
	g := bepi.RMAT(8, 6, 5)
	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Trace every query (the default samples 1-in-N) so trace assertions
	// are deterministic.
	s := NewWithConfig(eng, qexec.Config{Obs: obs.New(obs.Options{})})
	return s, eng
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: invalid JSON %q: %v", path, rec.Body.String(), err)
	}
	return rec, body
}

func TestHealthz(t *testing.T) {
	s, eng := testServer(t)
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body["status"] != "ok" || int(body["nodes"].(float64)) != eng.N() {
		t.Fatalf("body %v", body)
	}
}

func TestStats(t *testing.T) {
	s, eng := testServer(t)
	rec, body := get(t, s, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if int(body["nodes"].(float64)) != eng.N() {
		t.Fatalf("nodes %v", body["nodes"])
	}
	if body["variant"] != "BePI" || body["preconditioned"] != true {
		t.Fatalf("variant fields wrong: %v", body)
	}
	spokes := int(body["spokes"].(float64))
	hubs := int(body["hubs"].(float64))
	deadends := int(body["deadends"].(float64))
	if spokes+hubs+deadends != eng.N() {
		t.Fatal("partition does not sum to n")
	}
}

func TestQueryTopK(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/query?seed=1&topk=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	top := body["top"].([]any)
	if len(top) != 5 {
		t.Fatalf("top has %d entries", len(top))
	}
	prev := 1.0
	for _, e := range top {
		ent := e.(map[string]any)
		score := ent["score"].(float64)
		if score > prev {
			t.Fatal("top not sorted")
		}
		prev = score
	}
}

func TestQueryFullVector(t *testing.T) {
	s, eng := testServer(t)
	rec, body := get(t, s, "/query?seed=2&full=true")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	scores := body["scores"].([]any)
	if len(scores) != eng.N() {
		t.Fatalf("scores length %d want %d", len(scores), eng.N())
	}
	want, err := eng.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range scores {
		if diff := v.(float64) - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("score[%d] differs", i)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	s, eng := testServer(t)
	cases := []struct {
		path string
		code int
	}{
		{"/query?seed=abc", http.StatusBadRequest},
		{"/query?seed=-1", http.StatusBadRequest},
		{fmt.Sprintf("/query?seed=%d", eng.N()), http.StatusBadRequest},
		{"/query?seed=1&topk=-2", http.StatusBadRequest},
		{"/query", http.StatusBadRequest},
	}
	for _, c := range cases {
		rec, body := get(t, s, c.path)
		if rec.Code != c.code {
			t.Errorf("%s: status %d want %d", c.path, rec.Code, c.code)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing error message", c.path)
		}
	}
	// Wrong method.
	req := httptest.NewRequest(http.MethodPost, "/query?seed=1", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /query status %d", rec.Code)
	}
}

func TestPersonalized(t *testing.T) {
	s, eng := testServer(t)
	body, _ := json.Marshal(PersonalizedRequest{
		Weights: map[string]float64{"1": 1, "2": 3},
		TopK:    7,
	})
	req := httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	top := resp["top"].([]any)
	if len(top) == 0 || len(top) > 7 {
		t.Fatalf("top has %d entries", len(top))
	}
	for _, e := range top {
		node := int(e.(map[string]any)["node"].(float64))
		if node == 1 || node == 2 {
			t.Fatal("seeds must be excluded from the ranking")
		}
		if node < 0 || node >= eng.N() {
			t.Fatal("node out of range")
		}
	}
}

func TestPersonalizedValidation(t *testing.T) {
	s, _ := testServer(t)
	bad := []string{
		`not json`,
		`{"weights":{}}`,
		`{"weights":{"abc":1}}`,
		`{"weights":{"99999":1}}`,
		`{"weights":{"1":-1}}`,
		`{"weights":{"1":0}}`,
	}
	for _, b := range bad {
		req := httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewReader([]byte(b)))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d want 400", b, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/personalized", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /personalized status %d", rec.Code)
	}
}

// TestPersonalizedRejectsNonFiniteInProcess: a NaN or infinite weight —
// reachable in-process (LocalBackend), never through JSON — must be a 400,
// not a NaN score vector.
func TestPersonalizedRejectsNonFiniteInProcess(t *testing.T) {
	s, _ := testServer(t)
	defer s.Close()
	for _, w := range []map[int]float64{
		{1: math.NaN()},
		{1: 1, 2: math.NaN()},
		{1: math.Inf(1)},
	} {
		_, err := s.Core().Personalized(context.Background(), w, 5)
		if StatusOf(err) != http.StatusBadRequest {
			t.Errorf("weights %v: err=%v (status %d), want 400", w, err, StatusOf(err))
		}
	}
}

// TestPersonalizedRejectsOverflowingSumHTTP: two finite weights of 1e308
// overflow their sum to +Inf, which would normalize every entry to zero;
// the request must be a 400 instead of an all-zero answer.
func TestPersonalizedRejectsOverflowingSumHTTP(t *testing.T) {
	s, _ := testServer(t)
	defer s.Close()
	body := []byte(`{"weights":{"1":1e308,"2":1e308}}`)
	req := httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d want 400: %s", rec.Code, rec.Body.String())
	}
}

// TestOversizeBodiesRejected: a POST body beyond MaxBodyBytes is a 413 on
// both decoding endpoints, counted as an error, even when it is otherwise
// valid JSON (the padding field is one the decoder would ignore).
func TestOversizeBodiesRejected(t *testing.T) {
	pad := strings.Repeat("x", MaxBodyBytes)
	static, _ := testServer(t)
	defer static.Close()
	dyn, d := testDynamicServer(t)
	for _, tc := range []struct {
		s    *Server
		path string
		body string
	}{
		{static, "/personalized", `{"weights":{"1":1},"topk":3,"pad":"` + pad + `"}`},
		{dyn, "/edges", `{"add":[{"src":0,"dst":1}],"pad":"` + pad + `"}`},
	} {
		errs := tc.s.Core().Metrics().Errors
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		tc.s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d want 413: %.200s", tc.path, rec.Code, rec.Body.String())
		}
		if got := tc.s.Core().Metrics().Errors; got != errs+1 {
			t.Errorf("%s: errors %d -> %d, want one more", tc.path, errs, got)
		}
	}
	if p := d.Pending(); p != 0 {
		t.Fatalf("oversize /edges body buffered %d updates", p)
	}
}

func TestMetrics(t *testing.T) {
	s, _ := testServer(t)
	// Two good queries, one bad one.
	get(t, s, "/query?seed=1")
	get(t, s, "/query?seed=2")
	get(t, s, "/query?seed=notanumber")
	rec, body := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if int(body["queries"].(float64)) != 2 {
		t.Fatalf("queries = %v", body["queries"])
	}
	if int(body["errors"].(float64)) != 1 {
		t.Fatalf("errors = %v", body["errors"])
	}
	if body["avg_query_ms"].(float64) <= 0 {
		t.Fatal("avg query time missing")
	}
	if body["index_bytes"].(float64) <= 0 {
		t.Fatal("index bytes missing")
	}
}

func TestPersonalizedMatchesEngine(t *testing.T) {
	s, eng := testServer(t)
	body := []byte(`{"weights":{"3":0.5,"7":0.5},"topk":3}`)
	req := httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	q := make([]float64, eng.N())
	q[3], q[7] = 0.5, 0.5
	want, err := eng.Personalized(q)
	if err != nil {
		t.Fatal(err)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	top := resp["top"].([]any)
	first := top[0].(map[string]any)
	node := int(first["node"].(float64))
	score := first["score"].(float64)
	if diff := score - want[node]; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("server score %v, engine %v", score, want[node])
	}
}
