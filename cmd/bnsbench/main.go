// Command bnsbench regenerates the paper's tables and figures on the
// synthetic datasets.
//
// Usage:
//
//	bnsbench -exp table4            # one experiment
//	bnsbench -exp all               # everything, in paper order
//	bnsbench -list                  # show available experiments
//	bnsbench -exp fig4 -quick       # tiny epochs, full code path
//	bnsbench -exp table4 -runs 3    # mean±std over 3 seeds
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment id (e.g. table4, fig5) or 'all'")
		list   = flag.Bool("list", false, "list available experiments")
		scale  = flag.Int("scale", 1, "dataset scale multiplier")
		epochs = flag.Int("epochs", 0, "override training epochs (0 = per-experiment default)")
		runs   = flag.Int("runs", 1, "repeated runs for mean±std columns")
		quick  = flag.Bool("quick", false, "truncate to a few epochs (smoke mode)")
		seed   = flag.Uint64("seed", 0, "master seed (0 = default)")
	)
	flag.Parse()

	// set holds the flags the command line named, as opposed to defaults.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(*quick, set); err != nil {
		fmt.Fprintf(os.Stderr, "bnsbench: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "bnsbench: -exp required (or -list); e.g. -exp table4 or -exp all")
		os.Exit(2)
	}
	o := experiments.Options{Scale: *scale, Epochs: *epochs, Runs: *runs, Quick: *quick, Seed: *seed}

	run := func(r experiments.Runner) {
		fmt.Printf("=== %s: %s ===\n", r.ID, r.Title)
		start := time.Now()
		if err := r.Run(os.Stdout, o); err != nil {
			fmt.Fprintf(os.Stderr, "bnsbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %s ---\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, r := range experiments.Registry() {
			run(r)
		}
		return
	}
	r, ok := experiments.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "bnsbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(r)
}

// checkFlags rejects a flag the run would ignore rather than dropping it:
// -quick fixes every experiment's epoch count, so `-quick -epochs 50` would
// otherwise run a few epochs, not 50. set holds the flags the command line
// named, so a default is never mistaken for a request.
func checkFlags(quick bool, set map[string]bool) error {
	if quick && set["epochs"] {
		return fmt.Errorf("-epochs is set but -quick fixes every experiment's epoch count, so it would be ignored: drop -epochs or -quick")
	}
	return nil
}
