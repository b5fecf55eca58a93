// Command bench is the repository's one performance benchmark: five named
// workloads over the trainer and the inference server, end-to-end metrics
// from an untraced run, per-layer metrics and a Chrome trace from a traced
// one, and output checks that fail the run. BENCHMARK.json at the repository
// root names every workload and metric with its unit, direction and
// regression bound; README.md in this directory says why each is there.
//
//	go run ./bench                         every workload, both passes, a summary
//	go run ./bench -quick                  the same on tiny graphs, in seconds
//	go run ./bench -workload k4-bns-tcp -seed 7 -seconds 10 -trace 0
//	                                       one run; its last line is one JSON object
//	go run ./bench -repeat 5 -out A.json   a set of runs, one JSON object per line
//	go run ./bench -compare A.json B.json  same / worse / unresolved per metric and workload
//
// Run it from the repository root.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errChecks is returned when the benchmark ran but an output check, an
// operation or a comparison failed; the details have been printed already.
var errChecks = errors.New("output checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload only and print its result as the last line (default: all, with a summary)")
	seed := fs.Uint64("seed", 1, "seed of every generated input: dataset, partition, model, sampling, requests")
	seconds := fs.Int("seconds", 0, "measured seconds of an untraced run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics and writes a trace")
	quick := fs.Bool("quick", false, "smoke-test sizes: ≈1,500-node graphs, 3 epochs, 2,000 requests")
	manifestPath := fs.String("manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "directory for traces and the default result file")
	out := fs.String("out", "", "append each run, stamped with box and build, to this file as one JSON object per line")
	repeat := fs.Int("repeat", 1, "without -workload: run every workload this many times")
	compare := fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	man, err := loadManifest(*manifestPath)
	if err != nil {
		return fmt.Errorf("%w (run from the repository root, or pass -manifest)", err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(man, fs.Arg(0), fs.Arg(1), stdout)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", *trace)
	}
	if *seconds == 0 {
		*seconds = man.RunSeconds
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	z := fullSizing(float64(*seconds))
	if *quick {
		z = quickSizing()
	}

	if *workload == "" {
		return runAll(man, fs, *out, *outDir, *repeat, stdout)
	}
	s, id, err := findSpec(*workload)
	if err != nil {
		return err
	}
	res, err := runWorkload(s, id, z, runOpts{seed: *seed, trace: *trace == 1, outDir: *outDir})
	if err != nil {
		return err
	}
	res.Stamp = newStamp(*seed)
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", s.name, p)
	}
	if res.Disturbed {
		fmt.Fprintf(os.Stderr, "bench: %s: DISTURBED: the host stole more than 5%% of CPU time while measuring\n", s.name)
	}
	line, err := res.contractLine(man)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errChecks
	}
	return nil
}

func appendResult(path string, res *result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, &r)
	}
	return runs, sc.Err()
}

// runAll runs every workload, untraced and traced, each run in a process of
// its own so that peak memory and CPU time belong to that run alone, and
// prints a summary. The runs are appended to the result file.
func runAll(man *manifest, fs *flag.FlagSet, out, outDir string, repeat int, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		out = filepath.Join(outDir, "results.json")
		if err := os.Remove(out); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	before, err := readResults(out)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	// Children get this invocation's flags, plus their workload, pass and result file.
	var passOn []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "repeat", "out", "trace":
		default:
			passOn = append(passOn, "-"+f.Name+"="+f.Value.String())
		}
	})
	failed := false
	for rep := 0; rep < repeat; rep++ {
		for _, s := range specs {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(exe, append(passOn, "-workload="+s.name, "-trace="+strconv.Itoa(trace), "-out="+out)...)
				cmd.Stdout = io.Discard // the child's result line is in the result file too
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", s.name, trace, err)
					failed = true
				}
			}
		}
	}
	runs, err := readResults(out)
	if err != nil {
		return err
	}
	if !summarize(man, runs[len(before):], stdout) || failed {
		return errChecks
	}
	fmt.Fprintf(stdout, "\nresults appended to %s\n", out)
	return nil
}
