package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stamp identifies the box and build a result file was measured on, so two
// files are only compared knowingly across machines or toolchains.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func newStamp(seed uint64) stamp {
	s := stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOAMD64:    "unknown",
		Commit:     "unknown",
		Seed:       seed,
	}
	dirty := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "GOAMD64":
				s.GOAMD64 = kv.Value
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
	}
	if dirty {
		s.Commit += "+uncommitted"
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the high-water mark of this address space. It is
// not getrusage's ru_maxrss, which survives exec and so carries the launcher's
// footprint (`go run`, a driver script) into the child.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" { // "VmHWM:  151234 kB"
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostTicks returns the steal and total jiffies of the machine-wide "cpu"
// line of /proc/stat. Zeroes (and so a zero steal share) where it is absent.
func hostTicks() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// inside user, so stop before it.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// region accumulates wall, CPU and host-steal time and heap allocations over
// the parts of a run that count as measured; stop/start brackets exclude what
// does not (the accuracy evaluation in the middle of a training run).
type region struct {
	wall, cpu    float64
	steal, ticks float64
	mallocs      uint64
	procs        int // GOMAXPROCS while the region ran

	t0           time.Time
	cpu0         float64
	steal0, tot0 float64
	mallocs0     uint64
}

func (r *region) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs0 = ms.Mallocs
	r.steal0, r.tot0 = hostTicks()
	r.procs = runtime.GOMAXPROCS(0)
	r.cpu0 = cpuSeconds()
	r.t0 = time.Now()
}

func (r *region) stop() {
	r.wall += time.Since(r.t0).Seconds()
	r.cpu += cpuSeconds() - r.cpu0
	s, t := hostTicks()
	r.steal += s - r.steal0
	r.ticks += t - r.tot0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs += ms.Mallocs - r.mallocs0
}

// elapsed is the measured wall time so far, including the open bracket.
func (r *region) elapsed() float64 { return r.wall + time.Since(r.t0).Seconds() }

// stealFrac is the share of the machine's CPU time the hypervisor gave to
// someone else while the region ran.
func (r *region) stealFrac() float64 {
	if r.ticks <= 0 {
		return 0
	}
	return r.steal / r.ticks
}

// disturbed reports whether the host took enough CPU time away during the
// region that its timings should not be trusted.
func (r *region) disturbed() bool { return r.stealFrac() > 0.05 }

// hostMetrics records the box a traced run measured on and reports whether
// the host disturbed it.
func hostMetrics(r *region, m map[string]float64) bool {
	m["host.steal_frac"] = r.stealFrac()
	m["host.nproc"] = float64(runtime.NumCPU())
	m["host.gomaxprocs"] = float64(r.procs)
	return r.disturbed()
}

// stages times the consecutive stages of a set-up, keyed by the per-layer
// metric each stage reports as.
type stages struct {
	start, last time.Time
	secs        map[string]float64
}

func newStages() *stages {
	now := time.Now()
	return &stages{start: now, last: now, secs: map[string]float64{}}
}

// lap ends the current stage under name and starts the next.
func (s *stages) lap(name string) {
	now := time.Now()
	s.secs[name] = now.Sub(s.last).Seconds()
	s.last = now
}

// total is the time from the first stage's start to the last lap.
func (s *stages) total() float64 { return s.last.Sub(s.start).Seconds() }
