package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name  string
		quick bool
		set   []string // flags the command line named
		want  []string // substrings of the error; nil = accepted
	}{
		{name: "defaults"},
		{name: "quick", quick: true, set: []string{"exp", "quick"}},
		{name: "epochs", set: []string{"exp", "epochs"}},
		{name: "quick false with epochs", set: []string{"quick", "epochs"}},
		{name: "quick with runs and seed", quick: true, set: []string{"quick", "runs", "seed", "scale"}},
		// -quick used to override -epochs without a word.
		{name: "quick with epochs", quick: true, set: []string{"exp", "quick", "epochs"}, want: []string{"-epochs", "-quick", "ignored"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := checkFlags(tc.quick, set)
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
