package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzServeRequests drives the HTTP front of a small engine with a fuzzed
// method, route, ?nodes= query and body: no request panics the server, every
// response body is JSON, a 200 to a predict carries one logit row of the
// model's width per requested node, and every 4xx or 5xx names its error.
// Updates land in the engine, so later inputs run against the features
// earlier ones wrote.
func FuzzServeRequests(f *testing.F) {
	ds := testDataset(f, 22)
	m, err := core.NewModel(core.ModelConfig{Arch: core.ArchGAT, Layers: 2, Hidden: 8, LR: 0.01, Seed: 3}, ds.FeatureDim(), ds.NumClasses)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := NewEngine(m, ds.G, ds.Features, 32)
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(eng, ServerConfig{MaxBatch: 8})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	methods := []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete}
	routes := []string{"/v1/predict", "/v1/update", "/v1/stats", "/v1/healthz"}

	f.Fuzz(func(t *testing.T, method, route uint8, nodes string, body []byte) {
		u := url.URL{Path: routes[int(route)%len(routes)]}
		if nodes != "" {
			u.RawQuery = url.Values{"nodes": {nodes}}.Encode()
		}
		req := httptest.NewRequest(methods[int(method)%len(methods)], u.String(), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		out := rec.Body.Bytes()
		if !json.Valid(out) {
			t.Fatalf("%s %s: status %d with a body that is not JSON: %q", req.Method, u.String(), rec.Code, out)
		}
		if rec.Code >= 400 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
				t.Fatalf("%s %s: status %d without an error: %s", req.Method, u.String(), rec.Code, out)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d", req.Method, u.String(), rec.Code)
		}
		if u.Path != "/v1/predict" {
			return
		}
		// The nodes asked for: the query's list, or else the body's.
		want := strings.Count(nodes, ",") + 1
		if nodes == "" {
			var b struct {
				Nodes []int32 `json:"nodes"`
			}
			json.NewDecoder(bytes.NewReader(body)).Decode(&b)
			want = len(b.Nodes)
		}
		var p struct {
			Logits [][]float32 `json:"logits"`
		}
		if err := json.Unmarshal(out, &p); err != nil {
			t.Fatalf("predict answer %s: %v", out, err)
		}
		if len(p.Logits) != want {
			t.Fatalf("%d logit rows for %d requested nodes: %s", len(p.Logits), want, out)
		}
		for i, row := range p.Logits {
			if len(row) != eng.NumClasses() {
				t.Fatalf("logit row %d has %d entries, the model %d classes", i, len(row), eng.NumClasses())
			}
		}
	})
}
