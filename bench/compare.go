package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) does, so a spread computed here equals one
// computed by a driver written against that function.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// values collects one metric of one workload over the runs of one pass.
func values(runs []*result, workload, metric string, trace bool) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
	}
	return xs
}

// summarize prints, per workload, every metric the runs measured, by name
// with its unit (the median when a workload ran more than once), then the
// figures that need two workloads. It reports whether every run was correct
// and every cross-workload check passed.
func summarize(man *manifest, runs []*result, w io.Writer) bool {
	ok := true
	for _, wd := range man.Workloads {
		fmt.Fprintf(w, "\n== %s ==\n", wd.Name)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, trace := range []bool{false, true} {
			for _, d := range man.defs(trace) {
				if xs := values(runs, wd.Name, d.Name, trace); len(xs) > 0 {
					fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.Name, median(xs), d.Unit)
				}
			}
		}
		tw.Flush()
		for _, r := range runs {
			if r.Workload != wd.Name {
				continue
			}
			if !r.Correct {
				ok = false
				fmt.Fprintf(w, "FAILED (trace %v): %d of %d operations failed; %v\n", r.Trace, r.Failed, r.Attempted, r.Problems)
			}
			if r.Disturbed {
				fmt.Fprintf(w, "disturbed (trace %v): the host stole more than 5%% of CPU time while this run measured\n", r.Trace)
			}
		}
	}
	if len(runs) > 0 {
		s := runs[0].Stamp
		fmt.Fprintf(w, "\nbox: %s, %d cores, GOMAXPROCS %d, %s GOAMD64=%s, commit %s, seed %d\n",
			s.CPU, s.NProc, s.GOMAXPROCS, s.GoVersion, s.GOAMD64, s.Commit, s.Seed)
	}

	// The paper's axis: the same graph, partition, model and transport at p=1
	// and p=0.1.
	full, bns := "k4-full-tcp", "k4-bns-tcp"
	if a, b := values(runs, full, "op_ms_p25", false), values(runs, bns, "op_ms_p25", false); len(a) > 0 && len(b) > 0 {
		fmt.Fprintf(w, "%s / %s epoch time (Figure 4's speed-up at p=0.1): %.3f\n", full, bns, median(a)/median(b))
	}
	if a, b := values(runs, full, "core.live_heap_mb", true), values(runs, bns, "core.live_heap_mb", true); len(a) > 0 && len(b) > 0 {
		fmt.Fprintf(w, "%s / %s live heap (Figure 6's memory saving): %.3f\n", bns, full, median(b)/median(a))
	}
	if a, b := values(runs, full, "comm.halo_bytes_per_epoch", true), values(runs, bns, "comm.halo_bytes_per_epoch", true); len(a) > 0 && len(b) > 0 {
		ratio := median(b) / median(a)
		fmt.Fprintf(w, "%s / %s halo bytes per epoch: %.4f (must be within 0.08–0.12)\n", bns, full, ratio)
		if ratio < 0.08 || ratio > 0.12 {
			ok = false
			fmt.Fprintln(w, "FAILED: halo traffic at p=0.1 is not a tenth of the traffic at p=1")
		}
	}
	return ok
}

// compareFiles prints, per end-to-end metric and workload, both sets' median
// and quartiles and the fixed bound, and a verdict: unresolved when either
// set's own spread (quartile distance over median) is wider than the bound,
// worse when B's median is worse than A's by more than the bound, same
// otherwise. Any worse pair is an error.
func compareFiles(man *manifest, pathA, pathB string, w io.Writer) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if len(a) > 0 && len(b) > 0 {
		sa, sb := a[0].Stamp, b[0].Stamp
		sa.Seed, sb.Seed, sa.Commit, sb.Commit = 0, 0, "", ""
		if sa != sb {
			fmt.Fprintf(w, "note: the two sets come from different boxes or builds:\n  A %+v\n  B %+v\n", sa, sb)
		}
	}
	for i, set := range [][]*result{a, b} {
		disturbed := 0
		for _, r := range set {
			if r.Disturbed {
				disturbed++
			}
		}
		if disturbed > 0 {
			fmt.Fprintf(w, "note: %d of %d runs of set %c were disturbed by host steal\n", disturbed, len(set), 'A'+i)
		}
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA q1 / median / q3\tB q1 / median / q3\tchange\tbound\tverdict")
	counts := map[string]int{}
	for _, wd := range man.Workloads {
		for _, d := range man.EndToEnd {
			xa, xb := values(a, wd.Name, d.Name, false), values(b, wd.Name, d.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			worse := (b2 - a2) / a2 // as a share of A's median, positive = B is worse
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "same"
			switch {
			case (a3-a1)/a2 > d.Bound || (b3-b1)/b2 > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
			}
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.5g / %.5g / %.5g\t%.5g / %.5g / %.5g\t%+.1f%%\t%.0f%%\t%s\n",
				wd.Name, d.Name, d.Unit, a1, a2, a3, b1, b2, b3, 100*(b2-a2)/a2, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	var verdicts []string
	for v := range counts {
		verdicts = append(verdicts, v)
	}
	sort.Strings(verdicts)
	for _, v := range verdicts {
		fmt.Fprintf(w, "%s: %d\n", v, counts[v])
	}
	if counts["worse"] > 0 {
		return errChecks
	}
	return nil
}
