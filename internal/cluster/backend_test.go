package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bepi/internal/server"
)

// endlessJSON streams an opening fragment and then repeats chunk until the
// client goes away (or, as a backstop, 256 MiB have gone out).
func endlessJSON(open string) http.HandlerFunc {
	chunk := []byte(strings.Repeat("0.5,", 1024))
	return func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(open))
		for sent := 0; sent < 256<<20 && r.Context().Err() == nil; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}
}

// TestHTTPBackendBoundsResponseBody checks that a replica streaming an
// endless 200 body gets a BackendError once the body passes the cap sized
// from its reported node count, on /query and on /healthz itself, while a
// legitimate body decodes.
func TestHTTPBackendBoundsResponseBody(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.HealthResponse{Status: "ok", Nodes: 10})
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("seed") == "1" {
			json.NewEncoder(w).Encode(server.QueryResponse{Seed: 1, Scores: make([]float64, 10)})
			return
		}
		endlessJSON(`{"seed":2,"scores":[`)(w, r)
	})
	mux.HandleFunc("/metrics/snapshot", endlessJSON(`{"replica":"x","padding":[`))
	hs := httptest.NewServer(mux)
	defer hs.Close()

	ctx := context.Background()
	b := NewHTTPBackend(hs.URL, nil)
	p, err := b.Query(ctx, 1, 0, true, false)
	if err != nil || len(p.Scores) != 10 {
		t.Fatalf("legitimate body: partial %+v err %v", p, err)
	}
	if got := b.nodes.Load(); got != 10 {
		t.Fatalf("backend learned %d nodes, want the reported 10", got)
	}
	wantOversize := func(name string, err error) {
		t.Helper()
		var be *BackendError
		if !errors.As(err, &be) || be.Status != http.StatusBadGateway || !strings.Contains(be.Msg, "exceeds") {
			t.Fatalf("%s: err %v, want an oversize BackendError", name, err)
		}
	}
	_, err = b.Query(ctx, 2, 0, true, false)
	wantOversize("query", err)
	_, err = b.MetricsSnapshot(ctx)
	wantOversize("snapshot", err)

	sick := httptest.NewServer(endlessJSON(`{"status":"ok","index_hash":"`))
	defer sick.Close()
	_, err = NewHTTPBackend(sick.URL, nil).Health(ctx)
	wantOversize("healthz", err)
}
