package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// The HTTP layer. The engine is single-owner, so instead of wrapping it in
// locks the server funnels every operation through one dispatcher goroutine.
// That serialization is not a bottleneck — it is the batching mechanism:
// predict requests that pile up while a pass is running are drained together
// and answered by ONE row-subset kernel pass, so concurrency raises rows per
// pass instead of contention.

// ServerConfig tunes the request path.
type ServerConfig struct {
	// MaxBatch bounds how many queued predict requests one dispatch
	// coalesces into a single engine pass. Default 64.
	MaxBatch int
	// MaxQueue bounds how many predict requests may wait for the dispatcher
	// at once. A request arriving at a full queue is shed immediately with
	// ErrOverloaded (HTTP 503 + Retry-After) instead of parking a handler
	// goroutine — load beyond this depth costs the sender a retry, not the
	// server unbounded memory. Default 4×MaxBatch.
	MaxQueue int
	// RetryAfter is the backoff hint shed responses carry in their
	// Retry-After header, rounded up to whole seconds. Default 1s.
	RetryAfter time.Duration
}

// ServerStats extends the engine counters with batching telemetry.
type ServerStats struct {
	Stats
	// Batches is the number of engine passes the dispatcher ran; Batched is
	// the total predict requests they answered. Batched/Batches is the
	// realized coalescing factor — 1.0 under sequential load, rising with
	// concurrency.
	Batches int64 `json:"batches"`
	Batched int64 `json:"batched_requests"`
	// MaxBatched is the largest single coalesced batch observed.
	MaxBatched int `json:"max_batched"`
	// Shed counts predict requests rejected with ErrOverloaded because the
	// dispatcher queue was full when they arrived.
	Shed int64 `json:"shed_requests"`
}

type predictReq struct {
	nodes []int32
	resp  chan predictResp
}

type predictResp struct {
	rows [][]float32
	err  error
}

type updateReq struct {
	node int32
	feat []float32
	resp chan updateResp
}

type updateResp struct {
	touched int
	err     error
}

// Server owns an Engine and serves it over HTTP.
type Server struct {
	eng        *Engine
	numNodes   int // the engine's node count, fixed once NewEngine returns
	maxBatch   int
	retryAfter time.Duration

	reqCh   chan predictReq
	updCh   chan updateReq
	statsCh chan chan ServerStats

	batches    int64
	batched    int64
	maxBatched int
	shed       atomic.Int64

	closeOnce sync.Once
	done      chan struct{}
	stopped   chan struct{}
}

// NewServer wraps eng and starts the dispatcher. Close releases it.
func NewServer(eng *Engine, cfg ServerConfig) *Server {
	s := newServer(eng, cfg)
	go s.dispatch()
	return s
}

// newServer builds the server without starting the dispatcher — the test
// seam that lets a queue be staged and drained deterministically.
func newServer(eng *Engine, cfg ServerConfig) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxBatch
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		eng:        eng,
		numNodes:   eng.NumNodes(),
		maxBatch:   cfg.MaxBatch,
		retryAfter: cfg.RetryAfter,
		reqCh:      make(chan predictReq, cfg.MaxQueue),
		updCh:      make(chan updateReq),
		statsCh:    make(chan chan ServerStats),
		done:       make(chan struct{}),
		stopped:    make(chan struct{}),
	}
	return s
}

// Close stops the dispatcher. In-flight handler requests receive an error;
// callers should stop the http.Server first (Shutdown drains handlers).
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	<-s.stopped
}

// dispatch is the engine's single owner: it alternates between coalesced
// predict batches, feature updates, and stats snapshots, in arrival order.
func (s *Server) dispatch() {
	defer close(s.stopped)
	for {
		select {
		case <-s.done:
			return
		case u := <-s.updCh:
			touched, err := s.eng.UpdateFeature(u.node, u.feat)
			u.resp <- updateResp{touched: touched, err: err}
		case c := <-s.statsCh:
			c <- s.snapshot()
		case r := <-s.reqCh:
			batch := []predictReq{r}
			// Drain whatever else queued while we were busy — this is the
			// whole batching mechanism. No linger timer: under sequential
			// load the queue is empty and latency stays one pass; under
			// concurrent load the queue is the batch.
		drain:
			for len(batch) < s.maxBatch {
				select {
				case r2 := <-s.reqCh:
					batch = append(batch, r2)
				default:
					break drain
				}
			}
			var all []int32
			for _, b := range batch {
				all = append(all, b.nodes...)
			}
			rows, err := s.eng.Predict(all)
			s.batches++
			s.batched += int64(len(batch))
			if len(batch) > s.maxBatched {
				s.maxBatched = len(batch)
			}
			off := 0
			for _, b := range batch {
				if err != nil {
					b.resp <- predictResp{err: err}
					continue
				}
				b.resp <- predictResp{rows: rows[off : off+len(b.nodes)]}
				off += len(b.nodes)
			}
		}
	}
}

func (s *Server) snapshot() ServerStats {
	return ServerStats{
		Stats:      s.eng.Stats(),
		Batches:    s.batches,
		Batched:    s.batched,
		MaxBatched: s.maxBatched,
		Shed:       s.shed.Load(),
	}
}

// errClosed is what handlers report when the dispatcher has been closed.
var errClosed = fmt.Errorf("serve: server is shut down")

// ErrOverloaded is returned by Predict when the dispatcher queue is full:
// the request was shed without being enqueued. Callers should back off and
// retry; the HTTP layer translates this to 503 with a Retry-After header.
var ErrOverloaded = fmt.Errorf("serve: predict queue is full, request shed")

// Predict routes one request through the dispatcher. Its nodes are checked
// before it is queued: the dispatcher hands a whole coalesced batch to one
// engine pass, which fails as a whole on a bad node, so a request that
// reached it with one would fail every request batched beside it. It never
// blocks on a full queue — load past MaxQueue is shed with ErrOverloaded so
// the number of parked requests (and the memory holding them) stays bounded.
func (s *Server) Predict(nodes []int32) ([][]float32, error) {
	for _, v := range nodes {
		if v < 0 || int(v) >= s.numNodes {
			return nil, fmt.Errorf("serve: node %d outside [0,%d)", v, s.numNodes)
		}
	}
	resp := make(chan predictResp, 1)
	select {
	case s.reqCh <- predictReq{nodes: nodes, resp: resp}:
	case <-s.done:
		return nil, errClosed
	default:
		s.shed.Add(1)
		return nil, ErrOverloaded
	}
	select {
	case r := <-resp:
		return r.rows, r.err
	case <-s.done:
		return nil, errClosed
	}
}

// Update routes one feature update through the dispatcher.
func (s *Server) Update(node int32, feat []float32) (int, error) {
	resp := make(chan updateResp, 1)
	select {
	case s.updCh <- updateReq{node: node, feat: feat, resp: resp}:
	case <-s.done:
		return 0, errClosed
	}
	select {
	case r := <-resp:
		return r.touched, r.err
	case <-s.done:
		return 0, errClosed
	}
}

// Stats returns a consistent snapshot via the dispatcher.
func (s *Server) Stats() (ServerStats, error) {
	c := make(chan ServerStats, 1)
	select {
	case s.statsCh <- c:
	case <-s.done:
		return ServerStats{}, errClosed
	}
	select {
	case st := <-c:
		return st, nil
	case <-s.done:
		return ServerStats{}, errClosed
	}
}

// Handler returns the HTTP API:
//
//	GET  /v1/healthz              liveness + graph/model shape
//	GET  /v1/stats                engine and batching counters
//	POST /v1/predict              {"nodes":[1,2]} -> logits + argmax classes
//	GET  /v1/predict?nodes=1,2    same, query-string form
//	POST /v1/update               {"node":5,"features":[...]} -> rows touched
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/update", s.handleUpdate)
	return mux
}

// writeJSON encodes v before it writes the header, so a body JSON cannot
// carry (a NaN or infinite logit) is answered with a 500 naming the cause
// instead of a 200 with nothing after it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		code = http.StatusInternalServerError
		body.Reset()
		json.NewEncoder(&body).Encode(map[string]string{
			"error": fmt.Sprintf("serve: the response cannot be encoded as JSON: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body.WriteTo(w)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"nodes":   s.eng.NumNodes(),
		"classes": s.eng.NumClasses(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// parseNodes accepts the query form "?nodes=1,2,3" or a JSON body
// {"nodes":[1,2,3]}.
func parseNodes(r *http.Request) ([]int32, error) {
	if q := r.URL.Query().Get("nodes"); q != "" {
		parts := strings.Split(q, ",")
		nodes := make([]int32, 0, len(parts))
		for _, p := range parts {
			n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("serve: bad node %q: %w", p, err)
			}
			nodes = append(nodes, int32(n))
		}
		return nodes, nil
	}
	var body struct {
		Nodes []int32 `json:"nodes"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("serve: bad predict body: %w", err)
	}
	return body.Nodes, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	nodes, err := parseNodes(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(nodes) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: no nodes requested"))
		return
	}
	rows, err := s.Predict(nodes)
	if err != nil {
		code := http.StatusBadRequest
		switch err {
		case errClosed:
			code = http.StatusServiceUnavailable
		case ErrOverloaded:
			code = http.StatusServiceUnavailable
			secs := int(s.retryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeErr(w, code, err)
		return
	}
	classes := make([]int, len(rows))
	for i, row := range rows {
		classes[i] = metrics.Argmax(row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":   nodes,
		"classes": classes,
		"logits":  rows,
	})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: update requires POST"))
		return
	}
	var body struct {
		Node     int32     `json:"node"`
		Features []float32 `json:"features"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad update body: %w", err))
		return
	}
	touched, err := s.Update(body.Node, body.Features)
	if err != nil {
		code := http.StatusBadRequest
		if err == errClosed {
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": body.Node, "touched": touched})
}
