package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestNewSetupRefusesBadValues: every bad dataset, model, checkpoint or graph
// value is refused by newSetup, which main runs before it generates the
// dataset — newSetup returns only configurations and the files it read, so no
// dataset exists when the error is reported. A good setup takes the
// dataset's paper depth when none is given, and carries what it read.
func TestNewSetupRefusesBadValues(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := core.ModelConfig{Arch: core.ArchSAGE, Hidden: 32, LR: 0.01, Seed: 1}
	m, err := core.NewModel(core.ModelConfig{Arch: core.ArchGAT, Layers: 2, Hidden: 8, LR: 0.01, Seed: 3}, 48, 41)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "good.bnst")
	if err := core.SaveCheckpointFile(ckpt, m); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	damaged := write("damaged.bnst", b)
	gfile := filepath.Join(dir, "good.csr")
	if err := graph.SaveFile(gfile, &graph.Graph{N: 2, Indptr: []int64{0, 1, 2}, Indices: []int32{1, 0}}); err != nil {
		t.Fatal(err)
	}
	junk := write("junk.csr", []byte("not a graph"))

	cases := []struct {
		name            string
		ds              string
		edit            func(c *core.ModelConfig)
		ckpt, graphPath string
		want            string // substring of the error; "" = accepted
	}{
		{name: "good", ds: "reddit"},
		{name: "good checkpoint and graph", ds: "yelp", ckpt: ckpt, graphPath: gfile},
		{name: "dataset", ds: "foo", want: `unknown dataset "foo"`},
		{name: "arch", ds: "reddit", edit: func(c *core.ModelConfig) { c.Arch = "gcn" }, want: `unknown arch "gcn"`},
		{name: "hidden", ds: "reddit", edit: func(c *core.ModelConfig) { c.Hidden = 0 }, want: "hidden dim 0"},
		{name: "layers", ds: "reddit", edit: func(c *core.ModelConfig) { c.Layers = -1 }, want: "need >=1 layer"},
		{name: "missing checkpoint", ds: "reddit", ckpt: filepath.Join(dir, "nonexistent", "x.bnst"), want: "load checkpoint"},
		{name: "damaged checkpoint", ds: "reddit", ckpt: damaged, want: "load checkpoint"},
		{name: "missing graph", ds: "reddit", graphPath: filepath.Join(dir, "nonexistent.csr"), want: "load graph"},
		{name: "junk graph", ds: "reddit", graphPath: junk, want: "load graph"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc := good
			if tc.edit != nil {
				tc.edit(&mc)
			}
			su, err := newSetup(tc.ds, 1, mc, tc.ckpt, tc.graphPath)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %v, want one naming %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("good setup refused: %v", err)
			}
			if su.data.Name == "" || su.mc.Layers != 4 {
				t.Fatalf("setup generates %q with %d layers; want the dataset's config and the paper's 4", su.data.Name, su.mc.Layers)
			}
			if (tc.ckpt != "") != (su.model != nil) || (tc.graphPath != "") != (su.graph != nil) {
				t.Fatalf("setup holds model %v and graph %v, for checkpoint %q and graph %q", su.model != nil, su.graph != nil, tc.ckpt, tc.graphPath)
			}
			if su.model != nil && core.MaxParamDiff(su.model, m) != 0 {
				t.Fatal("the setup's model does not hold the checkpoint's weights")
			}
		})
	}
}
