package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval. parent is the index of the span that caused it
// (-1 for a root); lane separates concurrent actors (0 the benchmark's own
// goroutine, 1+r rank r or client r) so a viewer draws them on separate rows.
type span struct {
	name       string
	start, end time.Duration // since recorder.t0
	parent     int32
	lane       int32
	args       map[string]float64
}

// recorder is the benchmark's span store: a slice sized before the traced
// pass starts, so recording a span is one atomic add and two stores, and
// nothing is written anywhere until the pass is over. Spans beyond the
// capacity are dropped and counted. A nil recorder records nothing, which is
// how the untraced passes run the same code.
type recorder struct {
	t0      time.Time
	spans   []span
	n       atomic.Int32
	dropped atomic.Int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its index, or -1 when nothing is recorded.
func (r *recorder) begin(name string, parent int32, lane int) int32 {
	if r == nil {
		return -1
	}
	i := r.n.Add(1) - 1
	if int(i) >= len(r.spans) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{name: name, start: time.Since(r.t0), parent: parent, lane: int32(lane)}
	return i
}

// end closes span i; args may be nil.
func (r *recorder) end(i int32, args map[string]float64) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = time.Since(r.t0)
	r.spans[i].args = args
}

func (r *recorder) recorded() []span {
	n := int(r.n.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return r.spans[:n]
}

// selfTimeMS sums, per span name, each span's duration minus the part of it
// its direct children cover (their union: ranks run side by side under one
// epoch): the time the layer itself was busy or waiting, as opposed to the
// layers it called.
func (r *recorder) selfTimeMS() map[string]float64 {
	spans := r.recorded()
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make(map[string]float64)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, until := time.Duration(0), s.start
		for _, k := range kids {
			from, to := max(spans[k].start, until), spans[k].end
			if to > from {
				covered += to - from
				until = to
			}
		}
		self[s.name] += float64(s.end-s.start-covered) / 1e6
	}
	return self
}

type chromeEvent struct {
	Name string             `json:"name"`
	Ph   string             `json:"ph"`
	TS   float64            `json:"ts"`  // µs
	Dur  float64            `json:"dur"` // µs
	PID  int                `json:"pid"`
	TID  int32              `json:"tid"`
	Args map[string]float64 `json:"args,omitempty"`
}

// write stores the spans as Chrome trace events (load the file in
// chrome://tracing or ui.perfetto.dev). pid is the workload's index, tid the
// lane; args carry the span's own index and its parent's, so the causal tree
// survives the flat event list.
func (r *recorder) write(dir, workload string, workloadID int) (string, error) {
	spans := r.recorded()
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		args := map[string]float64{"id": float64(i), "parent": float64(s.parent)}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = chromeEvent{
			Name: s.name, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: workloadID, TID: s.lane, Args: args,
		}
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"workload":        workload,
		"droppedSpans":    r.dropped.Load(),
		"selfTimeMs":      r.selfTimeMS(),
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
