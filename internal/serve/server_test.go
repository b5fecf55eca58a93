package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

func testServer(t *testing.T) (*Server, *httptest.Server, *core.FullTrainer) {
	t.Helper()
	ds := testDataset(t, 21)
	ft, _ := trainedModel(t, ds, core.ArchSAGE, 2)
	eng, err := NewEngine(ft.Model, ds.G, ds.Features, 256)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, ServerConfig{MaxBatch: 16})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs, ft
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	return resp.StatusCode
}

type predictBody struct {
	Nodes   []int32     `json:"nodes"`
	Classes []int       `json:"classes"`
	Logits  [][]float32 `json:"logits"`
}

// TestHTTPEndpoints drives every endpoint through a real HTTP round trip
// and checks the served logits against the trainer's inference bits.
func TestHTTPEndpoints(t *testing.T) {
	_, hs, ft := testServer(t)
	ref := ft.Forward(false)

	var health map[string]any
	if code := getJSON(t, hs.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz %v", health)
	}

	// Query-string form.
	var pr predictBody
	if code := getJSON(t, hs.URL+"/v1/predict?nodes=0,5,9", &pr); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	if len(pr.Logits) != 3 || len(pr.Classes) != 3 {
		t.Fatalf("predict returned %d logits, %d classes", len(pr.Logits), len(pr.Classes))
	}
	for i, v := range []int{0, 5, 9} {
		if !rowsEqual(pr.Logits[i], ref.Row(v)) {
			t.Fatalf("node %d: HTTP logits differ from trainer inference", v)
		}
		if pr.Classes[i] != metrics.Argmax(ref.Row(v)) {
			t.Fatalf("node %d: class %d, want %d", v, pr.Classes[i], metrics.Argmax(ref.Row(v)))
		}
	}

	// JSON-body form must agree with the query form.
	var pr2 predictBody
	if code := postJSON(t, hs.URL+"/v1/predict", map[string]any{"nodes": []int32{5}}, &pr2); code != http.StatusOK {
		t.Fatalf("predict POST status %d", code)
	}
	if !rowsEqual(pr2.Logits[0], pr.Logits[1]) {
		t.Fatal("POST and GET predict disagree")
	}

	// Update shifts the node's logits; a fresh predict must see it.
	feats := make([]float32, ft.DS.FeatureDim())
	for j := range feats {
		feats[j] = 2
	}
	var ur map[string]any
	if code := postJSON(t, hs.URL+"/v1/update", map[string]any{"node": 5, "features": feats}, &ur); code != http.StatusOK {
		t.Fatalf("update status %d: %v", code, ur)
	}
	if ur["touched"].(float64) <= 0 {
		t.Fatalf("update touched %v rows", ur["touched"])
	}
	var pr3 predictBody
	getJSON(t, hs.URL+"/v1/predict?nodes=5", &pr3)
	if rowsEqual(pr3.Logits[0], pr.Logits[1]) {
		t.Fatal("logits unchanged after a feature update")
	}

	var st ServerStats
	if code := getJSON(t, hs.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Predicts == 0 || st.Batches == 0 || st.Updates != 1 {
		t.Fatalf("stats %+v", st)
	}

	// Bad requests get 4xx, not a hang or a panic.
	var e map[string]any
	if code := getJSON(t, hs.URL+"/v1/predict?nodes=999999", &e); code != http.StatusBadRequest {
		t.Fatalf("out-of-range predict status %d", code)
	}
	if code := getJSON(t, hs.URL+"/v1/predict?nodes=abc", &e); code != http.StatusBadRequest {
		t.Fatalf("garbage predict status %d", code)
	}
	if code := postJSON(t, hs.URL+"/v1/update", map[string]any{"node": 0, "features": []float32{1}}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad-width update status %d", code)
	}
}

// TestConcurrentClientsBatchAndAgree hammers the server from many goroutines
// (this test is the -race exercise for the dispatcher) and checks that every
// response carries the right bits and that coalescing actually happened.
func TestConcurrentClientsBatchAndAgree(t *testing.T) {
	srv, hs, ft := testServer(t)
	ref := ft.Forward(false)
	n := ft.DS.G.N

	const clients, perClient = 16, 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				v := (c*perClient + i*7) % n
				var pr predictBody
				resp, err := http.Get(fmt.Sprintf("%s/v1/predict?nodes=%d", hs.URL, v))
				if err != nil {
					errs <- err
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if !rowsEqual(pr.Logits[0], ref.Row(v)) {
					errs <- fmt.Errorf("node %d: concurrent response has wrong bits", v)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batched != clients*perClient {
		t.Fatalf("answered %d requests, want %d", st.Batched, clients*perClient)
	}
}

// TestDispatcherCoalescesQueuedRequests pins the batching mechanism itself,
// deterministically: requests staged in the queue before the dispatcher
// wakes must be answered by ONE engine pass — and each response must carry
// its own request's rows, in order, despite the shared pass.
func TestDispatcherCoalescesQueuedRequests(t *testing.T) {
	ds := testDataset(t, 23)
	ft, _ := trainedModel(t, ds, core.ArchSAGE, 2)
	eng, err := NewEngine(ft.Model, ds.G, ds.Features, 256)
	if err != nil {
		t.Fatal(err)
	}
	// An update makes rows stale, so the pass has rows to recompute.
	feat := rampFeatures(ds.FeatureDim(), 1)
	if _, err := eng.UpdateFeature(5, feat); err != nil {
		t.Fatal(err)
	}
	ref := updatedReference(t, 23, ft, map[int32][]float32{5: feat})
	var s []int32
	for v, stale := range eng.stale {
		if stale {
			s = append(s, int32(v))
		}
	}
	if len(s) < 9 {
		t.Fatalf("the update left %d rows stale, the test needs 9", len(s))
	}
	before := eng.Stats()
	srv := newServer(eng, ServerConfig{MaxBatch: 16})
	// Stage 8 requests over stale rows — some multi-node, one duplicating
	// another's node — in the buffered queue, THEN start the dispatcher.
	reqs := [][]int32{{s[0]}, {s[1], s[2]}, {s[3]}, {s[1]}, {s[4], s[5], s[6]}, {s[7]}, {s[8]}, {s[2]}}
	resps := make([]chan predictResp, len(reqs))
	for i, nodes := range reqs {
		resps[i] = make(chan predictResp, 1)
		srv.reqCh <- predictReq{nodes: nodes, resp: resps[i]}
	}
	go srv.dispatch()
	defer srv.Close()
	for i, nodes := range reqs {
		r := <-resps[i]
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.rows) != len(nodes) {
			t.Fatalf("request %d got %d rows for %d nodes", i, len(r.rows), len(nodes))
		}
		for j, v := range nodes {
			if !rowsEqual(r.rows[j], ref.Row(int(v))) {
				t.Fatalf("request %d node %d: wrong bits out of the coalesced pass", i, v)
			}
		}
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.Batched != int64(len(reqs)) || st.MaxBatched != len(reqs) {
		t.Fatalf("staged queue should drain in one pass: %+v", st)
	}
	// All 11 lookups are of stale rows (a within-pass duplicate is not a
	// hit), but the pass itself dedups: each of the 9 distinct rows is
	// recomputed once, and only those leave the stale set.
	if st.Misses-before.Misses != 11 || st.Hits != before.Hits || before.Stale-st.Stale != 9 {
		t.Fatalf("coalesced pass dedup: %+v, before %+v", st, before)
	}
}

// TestBadNodeFailsOnlyItsOwnRequest: a request naming a node outside the
// graph is refused on its own and never reaches the dispatcher, so a valid
// request that would have been coalesced with it gets its rows. The valid
// request is queued first and the dispatcher started only once the invalid
// one has either been refused or queued beside it.
func TestBadNodeFailsOnlyItsOwnRequest(t *testing.T) {
	ds := testDataset(t, 23)
	ft, _ := trainedModel(t, ds, core.ArchSAGE, 2)
	ref := ft.Forward(false)
	eng, err := NewEngine(ft.Model, ds.G, ds.Features, 256)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, ServerConfig{MaxBatch: 16})
	type result struct {
		rows [][]float32
		err  error
	}
	predict := func(nodes []int32) chan result {
		c := make(chan result, 1)
		go func() {
			rows, err := srv.Predict(nodes)
			c <- result{rows, err}
		}()
		return c
	}
	good := predict([]int32{3, 4})
	for len(srv.reqCh) < 1 {
		runtime.Gosched()
	}
	bad := predict([]int32{5, int32(ds.G.N)})
	var badRes *result
	for badRes == nil && len(srv.reqCh) < 2 {
		select {
		case r := <-bad:
			badRes = &r
		default:
			runtime.Gosched()
		}
	}
	go srv.dispatch()
	defer srv.Close()
	if badRes == nil {
		r := <-bad
		badRes = &r
	}
	want := fmt.Sprintf("serve: node %d outside [0,%d)", ds.G.N, ds.G.N)
	if badRes.err == nil || badRes.err.Error() != want {
		t.Fatalf("bad request: error %v, want %q", badRes.err, want)
	}
	r := <-good
	if r.err != nil {
		t.Fatalf("good request failed beside a bad one: %v", r.err)
	}
	for j, v := range []int32{3, 4} {
		if !rowsEqual(r.rows[j], ref.Row(int(v))) {
			t.Fatalf("good request node %d: wrong bits", v)
		}
	}
}

// TestServerClose: a closed server answers with errors, not deadlocks.
func TestServerClose(t *testing.T) {
	ds := testDataset(t, 22)
	ft, _ := trainedModel(t, ds, core.ArchSAGE, 2)
	eng, err := NewEngine(ft.Model, ds.G, ds.Features, 16)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, ServerConfig{})
	if _, err := srv.Predict([]int32{0}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := srv.Predict([]int32{0}); err == nil {
		t.Fatal("predict succeeded after Close")
	}
	if _, err := srv.Update(0, make([]float32, ds.FeatureDim())); err == nil {
		t.Fatal("update succeeded after Close")
	}
	if _, err := srv.Stats(); err == nil {
		t.Fatal("stats succeeded after Close")
	}
	srv.Close() // idempotent
}

// TestPredictOfNonFiniteLogitsIsAJSONError: features at the edge of float32
// drive a node's logits to NaN or ±Inf, which JSON cannot carry. The answer
// must be a non-2xx JSON error naming the cause, not a 200 with an empty body.
func TestPredictOfNonFiniteLogitsIsAJSONError(t *testing.T) {
	ds := testDataset(t, 21)
	ft, _ := trainedModel(t, ds, core.ArchSAGE, 2)
	eng, err := NewEngine(ft.Model, ds.G, ds.Features, 256)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, ServerConfig{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	huge := make([]float32, ds.FeatureDim())
	for j := range huge {
		huge[j] = 3.4e38
		if j%2 == 1 {
			huge[j] = -3.4e38
		}
	}
	const node = 5
	for _, v := range append([]int32{node}, ds.G.Neighbors(node)...) {
		var out map[string]any
		if code := postJSON(t, hs.URL+"/v1/update", map[string]any{"node": v, "features": huge}, &out); code != http.StatusOK {
			t.Fatalf("update of node %d: status %d, %v", v, code, out)
		}
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/predict?nodes=%d", hs.URL, node))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	var out map[string]string
	if err := json.Unmarshal(body.Bytes(), &out); err != nil {
		t.Fatalf("status %d, body %q is not a JSON object: %v", resp.StatusCode, body.String(), err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(out["error"], "unsupported value") {
		t.Fatalf("status %d, body %q: want 500 and an error naming the value JSON cannot encode", resp.StatusCode, body.String())
	}
}
