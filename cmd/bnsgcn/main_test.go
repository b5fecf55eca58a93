package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elastic"
)

func writeHosts(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "hosts")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRendezvousCandidatesDefaultsToLoopback(t *testing.T) {
	cands, err := rendezvousCandidates("", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"127.0.0.1:29500", "127.0.0.1:29501", "127.0.0.1:29502"}
	if !reflect.DeepEqual(cands, want) {
		t.Fatalf("loopback candidates %v, want %v", cands, want)
	}
}

func TestRendezvousCandidatesPortDefaultingAndPassthrough(t *testing.T) {
	p := writeHosts(t, "# training cohort\nnode-a\nnode-b:4000\n\n[::1]:4001\n")
	cands, err := rendezvousCandidates(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"node-a:29500", "node-b:4000", "[::1]:4001"}
	if !reflect.DeepEqual(cands, want) {
		t.Fatalf("candidates %v, want %v", cands, want)
	}
}

func TestRendezvousCandidatesCountMismatch(t *testing.T) {
	p := writeHosts(t, "node-a\nnode-b\n")
	if _, err := rendezvousCandidates(p, 3); err == nil || !strings.Contains(err.Error(), "lists 2 ranks") {
		t.Fatalf("count mismatch not reported: %v", err)
	}
}

func TestRendezvousCandidatesRejectsMalformedEntry(t *testing.T) {
	// An unbracketed IPv6 literal parses as too many colons — the error must
	// name the file, the line, and the bracket rule.
	p := writeHosts(t, "node-a\n::1:4000\n")
	_, err := rendezvousCandidates(p, 2)
	if err == nil {
		t.Fatal("malformed host:port accepted")
	}
	for _, want := range []string{"line 2", "::1:4000", "brackets"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("malformed-entry error %q does not mention %q", err, want)
		}
	}
}

func TestRendezvousCandidatesRejectsDuplicates(t *testing.T) {
	cases := []struct {
		name  string
		hosts string
		world int
	}{
		// The same host:port written twice.
		{"verbatim", "node-a:4000\nnode-b:4000\nnode-a:4000\n", 3},
		// Hostnames are case-insensitive; these collide after canonicalizing.
		{"case-insensitive", "Node-A:4000\nnode-a:4000\n", 2},
		// A bare host on line 3 defaults to basePort+2 = 29502, which line 1
		// claimed explicitly — a collision the raw strings don't show.
		{"port-defaulting", "node-a:29502\nnode-b\nnode-a\n", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := writeHosts(t, tc.hosts)
			_, err := rendezvousCandidates(p, tc.world)
			if err == nil {
				t.Fatalf("duplicate candidate set accepted:\n%s", tc.hosts)
			}
			msg := err.Error()
			for _, want := range []string{"conflicts with line", "every rank needs its own"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("duplicate error %q does not contain %q", msg, want)
				}
			}
			if !strings.Contains(msg, "line ") {
				t.Fatalf("duplicate error %q names no line numbers", msg)
			}
		})
	}
}

func TestRendezvousCandidatesSelfConflictLineNumbers(t *testing.T) {
	// Comments and blank lines must not shift the reported line numbers: the
	// duplicate pair here sits on physical lines 2 and 5.
	p := writeHosts(t, "# cohort\nnode-a:4000\nnode-b:4001\n\nnode-a:4000\n")
	_, err := rendezvousCandidates(p, 3)
	if err == nil {
		t.Fatal("duplicate accepted")
	}
	for _, want := range []string{"line 5", "line 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s of the conflicting pair", err, want)
		}
	}
}

func TestCheckModeFlags(t *testing.T) {
	cases := []struct {
		name        string
		rank, world int
		spawn, join bool
		rdv, ckpt   string
		set         []string // flags the command line named
		want        []string // substrings of the error; nil = accepted
	}{
		{name: "in-process", rank: -1},
		{name: "tcp rank", rank: 1, world: 4, rdv: "h:1"},
		{name: "tcp spawn", rank: -1, world: 4, spawn: true, rdv: "h:1"},
		{name: "elastic join", rank: 2, world: 4, join: true, ckpt: "/c"},
		// Multi-process flags without a selector used to be ignored silently.
		{name: "bare world", rank: -1, world: 8, want: []string{"-world 8", "-rendezvous", "-checkpoint-dir"}},
		{name: "bare rank", rank: 0, want: []string{"-rank 0", "-rendezvous", "-checkpoint-dir"}},
		{name: "bare spawn", rank: -1, spawn: true, want: []string{"-spawn", "-rendezvous", "-checkpoint-dir"}},
		{name: "join without dir", rank: 2, world: 4, join: true, rdv: "h:1", want: []string{"-join requires -checkpoint-dir"}},
		{name: "both selectors", rank: 0, world: 2, rdv: "h:1", ckpt: "/c", want: []string{"mutually exclusive"}},
		{name: "no world", rank: 0, rdv: "h:1", want: []string{"-world >= 1"}},
		{name: "rank out of range", rank: 4, world: 4, ckpt: "/c", want: []string{"-rank 4 outside [0,4)"}},
		{name: "rank missing", rank: -1, world: 4, rdv: "h:1", want: []string{"-rank -1 outside", "-spawn"}},
		// Flags the chosen mode never reads used to be dropped on the floor.
		{name: "elastic flags", rank: 1, world: 4, ckpt: "/c", set: []string{"checkpoint-every", "checkpoint-keep", "hosts", "heartbeat-interval", "heartbeat-timeout", "max-recoveries", "resize-after", "listen-host"}},
		{name: "tcp listen-host", rank: 1, world: 4, rdv: "h:1", set: []string{"listen-host"}},
		{name: "in-process k", rank: -1, set: []string{"k"}},
		{name: "checkpoint-every in-process", rank: -1, set: []string{"checkpoint-every"}, want: []string{"-checkpoint-every is set", "an in-process run never reads it", "-checkpoint-dir"}},
		{name: "checkpoint-keep in-process", rank: -1, set: []string{"checkpoint-keep"}, want: []string{"-checkpoint-keep is set", "an in-process run never reads it"}},
		{name: "heartbeat-interval over tcp", rank: 1, world: 4, rdv: "h:1", set: []string{"heartbeat-interval"}, want: []string{"-heartbeat-interval is set", "a -rendezvous run never reads it", "-checkpoint-dir"}},
		{name: "heartbeat-timeout over tcp", rank: 1, world: 4, rdv: "h:1", set: []string{"heartbeat-timeout"}, want: []string{"-heartbeat-timeout is set", "a -rendezvous run never reads it"}},
		{name: "max-recoveries in-process", rank: -1, set: []string{"max-recoveries"}, want: []string{"-max-recoveries is set", "an in-process run never reads it"}},
		{name: "resize-after over tcp", rank: 1, world: 4, rdv: "h:1", set: []string{"resize-after"}, want: []string{"-resize-after is set", "a -rendezvous run never reads it"}},
		{name: "hosts over tcp", rank: 0, world: 4, rdv: "h:1", set: []string{"hosts"}, want: []string{"-hosts is set", "a -rendezvous run never reads it", "-checkpoint-dir"}},
		{name: "hosts in-process", rank: -1, set: []string{"hosts"}, want: []string{"-hosts is set", "an in-process run never reads it"}},
		{name: "listen-host in-process", rank: -1, set: []string{"listen-host"}, want: []string{"-listen-host is set", "an in-process run never reads it"}},
		{name: "k over tcp", rank: 0, world: 4, rdv: "h:1", set: []string{"k"}, want: []string{"-k is set", "a -rendezvous run never reads it", "-world"}},
		{name: "k elastic", rank: -1, world: 4, spawn: true, ckpt: "/c", set: []string{"k"}, want: []string{"-k is set", "an elastic run never reads it", "-world"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := checkModeFlags(tc.rank, tc.world, tc.spawn, tc.join, tc.rdv, tc.ckpt, set)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

func TestSamplerFromFlags(t *testing.T) {
	cases := []struct {
		name    string
		sampler string
		set     []string // flags the command line named
		budget  int
		banner  string   // substring of the description when accepted
		want    []string // substrings of the error; nil = accepted
	}{
		{name: "bns default", sampler: "bns", banner: "at p=0.1"},
		{name: "bns -p", sampler: "bns", set: []string{"p"}, banner: "at p=0.1"},
		{name: "ladies", sampler: "ladies", set: []string{"sampler-budget"}, budget: 128, banner: "budget of 128"},
		{name: "ladies keep all", sampler: "ladies", budget: 0, banner: "budget of 0"},
		// A parameter of a sampler that is not running used to be dropped on the floor.
		{name: "bns with budget", sampler: "bns", set: []string{"sampler-budget"}, budget: 128, want: []string{"-sampler-budget", "-sampler bns never reads it", "-sampler ladies"}},
		{name: "ladies with p", sampler: "ladies", set: []string{"p"}, budget: 64, want: []string{"-p is set", "-sampler ladies never reads it", "-sampler bns"}},
		// Out-of-range parameters used to mean "keep everything".
		{name: "negative budget", sampler: "ladies", budget: -1, want: []string{"-sampler-budget -1 is negative"}},
		{name: "unknown", sampler: "fastgcn", want: []string{`unknown -sampler "fastgcn"`}},
		// GraphSAINT runs only as a minibatch sampler, so the engine does not know it.
		{name: "saint", sampler: "saint", want: []string{`unknown -sampler "saint" (want bns or ladies)`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			strategy, banner, err := samplerFromFlags(tc.sampler, set, 0.1, tc.budget)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				if !strings.Contains(banner, tc.banner) {
					t.Fatalf("banner %q does not carry the sampler's own parameter %q", banner, tc.banner)
				}
				if strategy.String() != tc.sampler {
					t.Fatalf("-sampler %s selected strategy %v", tc.sampler, strategy)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

// TestNewPlanRefusesBadValues: every bad dataset, partitioner, model,
// sampling or elastic value is refused by newPlan, which main runs before it generates
// a dataset, partitions it or spawns a worker — newPlan returns only the
// configurations, so no dataset exists when the error is reported. A good
// plan takes the dataset's paper defaults for the values left unset.
func TestNewPlanRefusesBadValues(t *testing.T) {
	good := core.ParallelConfig{
		Model: core.ModelConfig{Arch: core.ArchSAGE, Hidden: 32, Dropout: -1, Seed: 1},
		P:     0.1, SampleSeed: 2,
	}
	// The flags' defaults of an elastic run.
	goodElastic := elastic.Config{Dir: "ckpt", Every: 5, Epochs: 100, MaxRecoveries: 5, KeepGenerations: 3}
	cases := []struct {
		name       string
		ds, method string
		edit       func(c *core.ParallelConfig)
		elastic    func(c *elastic.Config) // an elastic run's edit; nil: not elastic
		want       string                  // substring of the error; "" = accepted
	}{
		{name: "good", ds: "reddit", method: "metis"},
		{name: "good elastic", ds: "reddit", method: "metis", elastic: func(c *elastic.Config) {}},
		{name: "dataset", ds: "foo", method: "metis", want: `unknown dataset "foo"`},
		{name: "partitioner", ds: "reddit", method: "foo", want: `unknown partitioner "foo"`},
		{name: "arch", ds: "reddit", method: "metis", edit: func(c *core.ParallelConfig) { c.Model.Arch = "gcn" }, want: `unknown arch "gcn"`},
		{name: "layers", ds: "reddit", method: "metis", edit: func(c *core.ParallelConfig) { c.Model.Layers = -1 }, want: "need >=1 layer"},
		{name: "hidden", ds: "reddit", method: "metis", edit: func(c *core.ParallelConfig) { c.Model.Hidden = 0 }, want: "hidden dim 0"},
		{name: "dropout", ds: "reddit", method: "metis", edit: func(c *core.ParallelConfig) { c.Model.Dropout = 1.5 }, want: "dropout 1.5"},
		{name: "lr", ds: "reddit", method: "metis", edit: func(c *core.ParallelConfig) { c.Model.LR = -0.01 }, want: "learning rate -0.01"},
		{name: "p", ds: "reddit", method: "metis", edit: func(c *core.ParallelConfig) { c.P = 1.5 }, want: "sampling rate p=1.5 outside [0,1]"},
		{name: "strategy", ds: "reddit", method: "metis", edit: func(c *core.ParallelConfig) { c.Strategy = 7 }, want: "unknown sampling strategy"},
		{name: "budget", ds: "reddit", method: "metis", edit: func(c *core.ParallelConfig) { c.Strategy, c.Budget = core.LADIES, -1 }, want: "sampling budget -1 is negative"},
		{name: "checkpoint-every", ds: "reddit", method: "metis", elastic: func(c *elastic.Config) { c.Every = 0 }, want: "checkpoint cadence 0 must be positive"},
		{name: "checkpoint-keep", ds: "reddit", method: "metis", elastic: func(c *elastic.Config) { c.KeepGenerations = -1 }, want: "negative KeepGenerations -1"},
		{name: "max-recoveries", ds: "reddit", method: "metis", elastic: func(c *elastic.Config) { c.MaxRecoveries = -1 }, want: "negative MaxRecoveries -1"},
		{name: "resize-after", ds: "reddit", method: "metis", elastic: func(c *elastic.Config) { c.ResizeAfter = -1 }, want: "negative ResizeAfter -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			if tc.edit != nil {
				tc.edit(&cfg)
			}
			var ecfg elastic.Config
			if tc.elastic != nil {
				ecfg = goodElastic
				tc.elastic(&ecfg)
			}
			pl, err := newPlan(tc.ds, tc.method, 1, cfg, ecfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("good plan refused: %v", err)
				}
				if m := pl.pcfg.Model; m.Layers != 4 || m.LR != float32(0.01) || m.Dropout != float32(0.5) {
					t.Fatalf("reddit plan trains %d layers at lr %v, dropout %v; want the paper's 4, 0.01, 0.5", m.Layers, m.LR, m.Dropout)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
