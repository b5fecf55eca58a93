package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The serve-mixed request mix. Reads and writes share one dispatcher, so a
// predict queued behind an update waits for it: that wait is the tail.
const (
	serveClients   = 2  // closed loop; no more client goroutines than this box has cores
	serveSlices    = 20 // a timed pass is cut into this many slices; throughput and CPU cost are quartiles over them
	batchNodes     = 16
	fracUpdate     = 0.005
	fracSingleNode = 0.10 // the rest are batchNodes-node predicts
	zipfS          = 1.1
)

// client is one closed-loop caller: its next request goes out when the
// previous one has been answered. Its request stream is a function of the
// seed alone and carries on across warm-up and passes.
type client struct {
	id      int
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int32 // popularity rank → node, so hot nodes are scattered over the graph
	nodes   int
	featDim int
	// updated holds the last feature row this client wrote per node. Clients
	// write disjoint node sets (node mod serveClients == id), so the final
	// state of the graph does not depend on how their updates interleaved.
	updated map[int32][]float32

	req                 []int32 // reused: the server is done with it when Predict returns
	predictUS, updateUS []float64
	lookups             int
	failed              int
}

func newClient(id int, ds *datagen.Dataset, seed uint64) *client {
	rng := rand.New(rand.NewSource(int64(requestSeed(seed))*serveClients + int64(id)))
	n := ds.G.N
	// The popularity order is shared by all clients: the same nodes are hot for everyone.
	perm := tensor.NewRNG(requestSeed(seed)).Perm(n)
	return &client{
		id: id, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)),
		perm: perm, nodes: n, featDim: ds.FeatureDim(), updated: map[int32][]float32{},
		req: make([]int32, batchNodes),
	}
}

func (c *client) reset() {
	c.predictUS, c.updateUS = c.predictUS[:0], c.updateUS[:0]
	c.lookups, c.failed = 0, 0
}

func (c *client) ops() int { return len(c.predictUS) + len(c.updateUS) + c.failed }

// step issues the client's next request and records its latency; a request
// that errors, or that the server sheds, is a failed operation.
func (c *client) step(srv *serve.Server, rec *recorder, parent int32) {
	u := c.rng.Float64()
	if u < fracUpdate {
		node := int32(c.rng.Intn(c.nodes/serveClients)*serveClients + c.id)
		feat := make([]float32, c.featDim)
		for i := range feat {
			feat[i] = float32(c.rng.NormFloat64())
		}
		sp := rec.begin("update", parent, 1+c.id)
		t0 := time.Now()
		_, err := srv.Update(node, feat)
		d := time.Since(t0)
		rec.end(sp, nil)
		if err != nil {
			c.failed++
			return
		}
		c.updated[node] = feat
		c.updateUS = append(c.updateUS, float64(d.Nanoseconds())/1e3)
		return
	}
	n, name := batchNodes, "predict16"
	if u < fracUpdate+fracSingleNode {
		n, name = 1, "predict1"
	}
	req := c.req[:n]
	for i := range req {
		req[i] = c.perm[c.zipf.Uint64()]
	}
	sp := rec.begin(name, parent, 1+c.id)
	t0 := time.Now()
	_, err := srv.Predict(req)
	d := time.Since(t0)
	rec.end(sp, nil)
	if err != nil {
		c.failed++
		return
	}
	c.lookups += n
	c.predictUS = append(c.predictUS, float64(d.Nanoseconds())/1e3)
}

// serveEnv is the serving workload after set-up: model loaded, activations
// precomputed, dispatcher running, cache warm.
type serveEnv struct {
	ds      *datagen.Dataset
	eng     *serve.Engine
	srv     *serve.Server
	clients []*client
	setup   *stages
}

func (e *serveEnv) close() { e.srv.Close() }

// drive runs every client's loop concurrently inside a bracket of reg, each
// until it has issued maxOps requests (0: no cap) or reg has measured until
// seconds (0: no limit).
//
// The loop runs on one P. The dispatcher serialises all engine work, so the
// clients, which only wait for it, never needed a second core; what a second P
// adds is threads that park when a goroutine blocks and are woken for the
// next hand-off, and on a shared host the price of that wake-up is the
// neighbours', not the program's: it moved the median Predict by 20 % between
// runs of one binary. On one P a hand-off is a goroutine switch.
func (e *serveEnv) drive(reg *region, maxOps int, until float64, rec *recorder) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var wg sync.WaitGroup
	for _, c := range e.clients {
		c.reset()
	}
	reg.start()
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			parent := rec.begin("client", -1, 1+c.id)
			for i := 0; maxOps == 0 || i < maxOps; i++ {
				c.step(e.srv, rec, parent)
				if until > 0 && reg.elapsed() >= until {
					break
				}
			}
			rec.end(parent, map[string]float64{"ops": float64(c.ops())})
		}(c)
	}
	wg.Wait()
	reg.stop()
}

// servedModel prepares the model the server loads — an input to the
// benchmark, like a checkpoint, not part of set-up: the workload's SAGE
// model trained full-graph for a fixed number of epochs, so that served
// predictions have an accuracy to check.
func servedModel(s spec, z sizing, seed uint64) (*core.Model, error) {
	ds, err := generate(s, z, seed)
	if err != nil {
		return nil, err
	}
	cfg := s.model
	cfg.Seed = modelSeed(seed)
	ft, err := core.NewFullTrainer(ds, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < z.serveTrainEpochs; i++ {
		if loss := ft.TrainEpoch(); math.IsNaN(loss) || math.IsInf(loss, 0) {
			return nil, fmt.Errorf("preparing the served model: loss %v at epoch %d", loss, i)
		}
	}
	return ft.Model, nil
}

// setupServe is what an operator waits for before the server takes traffic:
// load the graph → precompute hidden activations → start the dispatcher →
// warm the cache.
func setupServe(s spec, z sizing, seed uint64, model *core.Model) (*serveEnv, error) {
	e := &serveEnv{setup: newStages()}
	lap := e.setup.lap
	ds, err := generate(s, z, seed)
	if err != nil {
		return nil, err
	}
	lap("datagen.generate_s")
	eng, err := serve.NewEngine(model, ds.G, ds.Features, z.serveCache)
	if err != nil {
		return nil, err
	}
	lap("serve.precompute_s")
	e.ds, e.eng, e.srv = ds, eng, serve.NewServer(eng, serve.ServerConfig{})
	for id := 0; id < serveClients; id++ {
		e.clients = append(e.clients, newClient(id, ds, seed))
	}
	e.drive(new(region), z.serveWarmOps, 0, nil)
	for _, c := range e.clients {
		if c.failed > 0 {
			e.close()
			return nil, fmt.Errorf("warm-up: %d requests of client %d failed", c.failed, c.id)
		}
	}
	lap("serve.warmup_s")
	return e, nil
}

// servePass is the clients' measurements of one pass, pooled.
type servePass struct {
	predictUS, updateUS []float64 // sorted
	lookups, ops        int
	failed              int
	reg                 region
	// Per slice of the pass: CPU time per request and node lookups per second.
	// A burst of host noise spoils the slices it falls on, not the quartile
	// of the others.
	cpuMSPerOp, lookupsPerS []float64
}

// pass drives the clients for seconds of measured time in serveSlices slices,
// or, when seconds is 0, for maxOps requests each in one.
func (e *serveEnv) pass(maxOps int, seconds float64, rec *recorder) *servePass {
	sp := &servePass{}
	slices := 1
	if seconds > 0 {
		slices = serveSlices
	}
	for i := 1; i <= slices; i++ {
		cpu0, wall0 := sp.reg.cpu, sp.reg.wall
		e.drive(&sp.reg, maxOps, seconds*float64(i)/float64(slices), rec)
		ops, lookups := 0, 0
		for _, c := range e.clients {
			sp.predictUS = append(sp.predictUS, c.predictUS...)
			sp.updateUS = append(sp.updateUS, c.updateUS...)
			sp.failed += c.failed
			ops += c.ops()
			lookups += c.lookups
		}
		sp.ops += ops
		sp.lookups += lookups
		sp.cpuMSPerOp = append(sp.cpuMSPerOp, (sp.reg.cpu-cpu0)*1e3/float64(ops))
		sp.lookupsPerS = append(sp.lookupsPerS, float64(lookups)/(sp.reg.wall-wall0))
	}
	sp.predictUS, sp.updateUS = sortedCopy(sp.predictUS), sortedCopy(sp.updateUS)
	return sp
}

// verify checks the server's answers after the load against the truth: a
// fresh engine built on the features as the clients' updates left them. 64
// sampled rows must match bit for bit, and the served predictions on the
// test split give the accuracy. It returns that accuracy and the fresh engine.
func (e *serveEnv) verify(z sizing, seed uint64, model *core.Model, res *result) (float64, *serve.Engine, error) {
	feats := e.ds.Features.Clone()
	for _, c := range e.clients {
		for node, row := range c.updated {
			copy(feats.Row(int(node)), row)
		}
	}
	fresh, err := serve.NewEngine(model, e.ds.G, feats, z.serveCache)
	if err != nil {
		return 0, nil, err
	}
	rng := rand.New(rand.NewSource(int64(requestSeed(seed)) + 1000))
	sample := make([]int32, 64)
	for i := range sample {
		sample[i] = int32(rng.Intn(e.ds.G.N))
	}
	got, err := e.srv.Predict(sample)
	if err != nil {
		return 0, nil, err
	}
	want, err := fresh.Predict(sample)
	if err != nil {
		return 0, nil, err
	}
	differ := 0
	for i := range sample {
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				differ++
				break
			}
		}
	}
	res.check(differ == 0, "%d of 64 served rows differ from a fresh engine on the post-update features", differ)

	var test []int32
	for v, isTest := range e.ds.TestMask {
		if isTest {
			test = append(test, int32(v))
		}
	}
	rows, err := e.srv.Predict(test)
	if err != nil {
		return 0, nil, err
	}
	logits := tensor.New(e.ds.G.N, e.ds.NumClasses)
	for i, v := range test {
		copy(logits.Row(int(v)), rows[i])
	}
	return metrics.Accuracy(logits, e.ds.Labels, e.ds.TestMask), fresh, nil
}

func runServe(s spec, id int, z sizing, o runOpts, res *result) error {
	model, err := servedModel(s, z, o.seed)
	if err != nil {
		return err
	}
	setups := z.serveSetups
	if o.trace {
		setups = 1
	}
	var env *serveEnv
	var setupS []float64
	for i := 0; i < setups; i++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		if env, err = setupServe(s, z, o.seed, model); err != nil {
			return err
		}
		setupS = append(setupS, env.setup.total())
	}
	defer env.close()
	if o.trace {
		return traceServe(s, id, z, o, env, model, res)
	}

	sp := env.pass(z.serveQuickOps, z.seconds, nil)
	res.Attempted, res.Failed = sp.ops, sp.failed
	acc, _, err := env.verify(z, o.seed, model, res)
	if err != nil {
		return err
	}
	if !z.quick {
		res.check(acc >= s.accFloor, "served test accuracy %.4f is below the floor %.2f", acc, s.accFloor)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m := res.Metrics
	m["setup_s"] = median(setupS)
	m["op_ms_p25"] = quantile(sp.predictUS, 0.25) / 1e3
	m["cpu_ms_per_op"] = lowerQuartile(sp.cpuMSPerOp)
	m["nodes_per_s"] = upperQuartile(sp.lookupsPerS)
	m["test_acc"] = acc
	m["peak_rss_mb"] = rss
	res.Disturbed = sp.reg.disturbed()
	fmt.Fprintf(os.Stderr, "bench: %s: %d predicts (p99 %.1fus), %d updates (p50 %.1fus) in %.2fs, host steal %.4f\n",
		s.name, len(sp.predictUS), quantile(sp.predictUS, 0.99), len(sp.updateUS), quantile(sp.updateUS, 0.5), sp.reg.wall, sp.reg.stealFrac())
	return nil
}

// traceServe is the traced run of the serving workload: the same number of
// requests untraced and under the recorder (one span per request under its
// client's span), then the engine and the HTTP front each on their own.
func traceServe(s spec, id int, z sizing, o runOpts, env *serveEnv, model *core.Model, res *result) error {
	m := res.Metrics
	for name, v := range env.setup.secs {
		m[name] = v
	}
	un := env.pass(z.serveTracedOps, 0, nil)
	rec := newRecorder(serveClients*(z.serveTracedOps+1) + 64)
	tp := env.pass(z.serveTracedOps, 0, rec)
	res.Attempted, res.Failed = un.ops+tp.ops, un.failed+tp.failed
	_, fresh, err := env.verify(z, o.seed, model, res)
	if err != nil {
		return err
	}

	m["serve.predict_us_p50"] = quantile(un.predictUS, 0.5)
	m["serve.predict_us_p99"] = quantile(un.predictUS, 0.99)
	m["serve.update_us_p50"] = quantile(un.updateUS, 0.5)
	st, err := env.srv.Stats()
	if err != nil {
		return err
	}
	m["serve.cache_hit_rate"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	m["serve.avg_coalesced"] = float64(st.Batched) / float64(st.Batches)
	m["serve.shed_frac"] = float64(st.Shed) / float64(st.Batched+st.Shed)
	if st.Updates > 0 {
		m["serve.update_rows_recomputed"] = float64(st.Recomputed) / float64(st.Updates)
	}

	// The engine alone, then the same request through the HTTP front: the
	// difference between each and serve.predict_us_p50 is the dispatcher's
	// and the HTTP layer's share.
	replays := rec.begin("layer_replays", -1, 0)
	c := env.clients[0]
	req := make([]int32, batchNodes)
	next := func() {
		for i := range req {
			req[i] = c.perm[c.zipf.Uint64()]
		}
	}
	m["serve.engine_predict_us"] = 1e3 * timeIt(rec, replays, "serve.engine_predict", z.replayBudget, func() {
		next()
		if _, err := fresh.Predict(req); err != nil {
			res.check(false, "engine predict: %v", err)
		}
	})
	front := httptest.NewServer(env.srv.Handler())
	m["serve.http_predict_us"] = 1e3 * timeIt(rec, replays, "serve.http_predict", z.replayBudget, func() {
		next()
		ids := make([]string, len(req))
		for i, v := range req {
			ids[i] = strconv.Itoa(int(v))
		}
		resp, err := front.Client().Get(front.URL + "/v1/predict?nodes=" + strings.Join(ids, ","))
		if err != nil {
			res.check(false, "http predict: %v", err)
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		res.check(err == nil && resp.StatusCode == http.StatusOK, "http predict: status %d, %v", resp.StatusCode, err)
	})
	front.Close()
	rec.end(replays, nil)

	m["bench.trace_overhead_frac"] = quantile(tp.predictUS, 0.5)/quantile(un.predictUS, 0.5) - 1
	res.Disturbed = hostMetrics(&un.reg, m)

	path, err := rec.write(o.outDir, s.name, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: wrote %s (%d spans)\n", s.name, path, len(rec.recorded()))
	return nil
}
