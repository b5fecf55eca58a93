// Command bnsserve serves node-classification queries from a trained
// BNS-GCN checkpoint over HTTP: the online-inference leg of the system the
// training commands produce checkpoints for.
//
// At startup it loads the model (either checkpoint kind — one CRC'd
// container; a trainer checkpoint's resume section is ignored), regenerates the
// dataset from the shared seed exactly like the training commands do — no
// feature files need distributing — and runs the whole stack once, keeping
// every layer's output. Queries are answered from the start-up pass's logit
// rows; a feature update re-embeds only the affected receptive field and
// marks its logit rows stale, and the next query for a stale row recomputes
// it in a row-subset pass (concurrent requests are coalesced into one pass
// per batch). Served logits are bit-identical to the FullTrainer evaluation
// path on the same checkpoint.
//
//	# train, checkpoint, then serve:
//	bnsserve -dataset reddit -checkpoint /tmp/ckpt/ckpt-g00000010.bnst
//
//	# smoke/load-test mode (no checkpoint: deterministic fresh weights):
//	bnsserve -dataset reddit -addr 127.0.0.1:8090
//
//	curl 'localhost:8090/v1/predict?nodes=1,2,3'
//	curl -d '{"node":7,"features":[...]}' localhost:8090/v1/update
//	curl localhost:8090/v1/stats
//
// With -graph the adjacency comes from a binary CSR file written by bnspart
// (validated on load: corrupt headers, non-monotonic indptr, and
// out-of-range indices are rejected) instead of the generated dataset's.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/serve"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bnsserve:", err)
	os.Exit(1)
}

func main() {
	var (
		dsName = flag.String("dataset", "reddit", "dataset to regenerate for features/labels: reddit, products, yelp")
		scale  = flag.Int("scale", 1, "dataset scale multiplier")
		seed   = flag.Uint64("seed", 1, "master seed (must match the training run's)")

		ckpt      = flag.String("checkpoint", "", "checkpoint to serve (weights-only or trainer; empty = fresh deterministic weights for smoke and load tests)")
		graphPath = flag.String("graph", "", "binary CSR graph file (bnspart -save) to serve instead of the generated dataset's adjacency; node count must match")
		arch      = flag.String("arch", "sage", "model when no checkpoint is given: sage or gat")
		layers    = flag.Int("layers", 0, "model depth when no checkpoint is given (0 = paper default for dataset)")
		hidden    = flag.Int("hidden", 32, "hidden units when no checkpoint is given")

		addr       = flag.String("addr", "127.0.0.1:8090", "listen address (host:port; port 0 picks a free port)")
		maxBatch   = flag.Int("max-batch", 64, "max concurrent predict requests coalesced into one row-subset pass")
		maxQueue   = flag.Int("max-queue", 0, "max predict requests waiting for the dispatcher before new ones are shed with 503 (0 = 4x max-batch)")
		retryAfter = flag.Duration("retry-after", time.Second, "backoff hint carried in shed responses' Retry-After header")
	)
	flag.Parse()

	su, err := newSetup(*dsName, *scale, core.ModelConfig{
		Arch: core.Arch(*arch), Layers: *layers, Hidden: *hidden, LR: 0.01, Seed: *seed,
	}, *ckpt, *graphPath)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("generating %s (scale %d)...\n", su.data.Name, *scale)
	ds, err := datagen.Generate(su.data)
	if err != nil {
		fatal(err)
	}
	g := ds.G
	if su.graph != nil {
		g = su.graph
		fmt.Printf("serving adjacency from %s (%d nodes, %d edges)\n", *graphPath, g.N, g.NumEdges())
	}

	model := su.model
	if model != nil {
		fmt.Printf("loaded %s: %s, %d layers, %d hidden, %d -> %d\n",
			*ckpt, model.Config.Arch, model.Config.Layers, model.Config.Hidden, model.InDim, model.OutDim)
	} else {
		if model, err = core.NewModel(su.mc, ds.FeatureDim(), ds.NumClasses); err != nil {
			fatal(err)
		}
		fmt.Printf("no checkpoint: serving fresh deterministic %s/%d-layer weights (seed %d)\n", su.mc.Arch, su.mc.Layers, *seed)
	}

	start := time.Now()
	eng, err := serve.NewEngine(model, g, ds.Features, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("precomputed embeddings for %d nodes in %s (max batch %d)\n",
		g.N, time.Since(start).Round(time.Millisecond), *maxBatch)

	srv := serve.NewServer(eng, serve.ServerConfig{MaxBatch: *maxBatch, MaxQueue: *maxQueue, RetryAfter: *retryAfter})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Printf("serving on http://%s (/v1/predict /v1/update /v1/stats /v1/healthz)\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("\n%s: draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "bnsserve: shutdown:", err)
		}
		cancel()
	case err := <-errCh:
		if err != http.ErrServerClosed {
			fatal(err)
		}
	}

	st, err := srv.Stats()
	srv.Close()
	if err == nil {
		out, _ := json.Marshal(st)
		fmt.Printf("final stats: %s\n", out)
	}
}

// setup is what a server is made of, read and checked from the flags before
// any work: the dataset to generate, and the model — a checkpoint's, or the
// configuration of fresh weights — and the -graph file's adjacency, if any.
type setup struct {
	data  datagen.Config
	mc    core.ModelConfig
	model *core.Model
	graph *graph.Graph
}

// newSetup builds and checks the setup of a server for dataset dsName at
// scale: it reads and decodes the checkpoint file ckpt, or else validates mc
// (a zero mc.Layers takes the dataset's paper default; mc.Seed is the master
// seed), and loads the graph file graphPath. It generates nothing, so a bad
// value costs no dataset.
func newSetup(dsName string, scale int, mc core.ModelConfig, ckpt, graphPath string) (setup, error) {
	var su setup
	var defLayers int
	switch dsName {
	case "reddit":
		su.data, defLayers = datagen.RedditSim(scale, mc.Seed), 4
	case "products":
		su.data, defLayers = datagen.ProductsSim(scale, mc.Seed), 3
	case "yelp":
		su.data, defLayers = datagen.YelpSim(scale, mc.Seed), 4
	default:
		return setup{}, fmt.Errorf("unknown dataset %q", dsName)
	}
	if mc.Layers == 0 {
		mc.Layers = defLayers
	}
	su.mc = mc
	var err error
	if ckpt != "" {
		if su.model, err = core.LoadModelFile(ckpt); err != nil {
			return setup{}, fmt.Errorf("load checkpoint: %w", err)
		}
	} else if err := mc.Validate(); err != nil {
		return setup{}, err
	}
	if graphPath != "" {
		if su.graph, err = graph.LoadFile(graphPath); err != nil {
			return setup{}, fmt.Errorf("load graph: %w", err)
		}
	}
	return su, nil
}
