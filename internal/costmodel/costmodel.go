// Package costmodel prices one BNS-GCN epoch from the exact operation and
// byte counts of a partitioned workload: the straggler partition's
// forward+backward FLOPs, its boundary feature traffic at rate p, and the
// gradient AllReduce, each divided by a Profile's rate.
//
// The only caller is the benchmark (bench/layers.go), which fills the
// Profile with rates it measured on the same box and reports the projection
// beside the measured epoch (costmodel.epoch_ms_pred and pred_err_frac).
// Nothing else prints a projection: the paper-table experiments report the
// engine's measured epoch stats.
package costmodel

import "repro/internal/core"

// Profile is the set of rates an epoch is priced at.
type Profile struct {
	// Name labels the profile; the benchmark sets it, nothing reads it.
	Name string
	// GPUFlops is the effective FP32 throughput per device (FLOP/s).
	GPUFlops float64
	// LinkBandwidth is point-to-point inter-device bandwidth (bytes/s).
	LinkBandwidth float64
	// LinkLatency is the fixed per-message cost (seconds).
	LinkLatency float64
	// SwapBandwidth is unused by EstimateBNS. It stays only because
	// bench/layers.go sets it, and goes with the benchmark's next change.
	SwapBandwidth float64
}

// Workload summarizes one partitioned training configuration by its
// straggler counts: the synchronous epoch waits for the largest partition.
type Workload struct {
	K int
	// MaxInner / MaxBoundary are the largest per-partition counts.
	MaxInner    int
	MaxBoundary int
	// MaxLocalEdges is the largest per-partition directed edge count
	// (inner-node adjacency, including halo edges).
	MaxLocalEdges int64
	// LayerIn / LayerOut are the per-layer feature dimensions.
	LayerIn  []int
	LayerOut []int
	// Params is the total trainable parameter count.
	Params int
}

// FromTopology derives a Workload from a concrete topology and model shape.
func FromTopology(t *core.Topology, layerIn, layerOut []int, params int) Workload {
	w := Workload{K: t.K, LayerIn: layerIn, LayerOut: layerOut, Params: params}
	for i := 0; i < t.K; i++ {
		if len(t.Inner[i]) > w.MaxInner {
			w.MaxInner = len(t.Inner[i])
		}
		if len(t.Boundary[i]) > w.MaxBoundary {
			w.MaxBoundary = len(t.Boundary[i])
		}
		var edges int64
		for _, v := range t.Inner[i] {
			edges += int64(t.G.Degree(v))
		}
		if edges > w.MaxLocalEdges {
			w.MaxLocalEdges = edges
		}
	}
	return w
}

// Breakdown is a projected epoch time split, in seconds.
type Breakdown struct {
	Compute float64
	Comm    float64
	Reduce  float64
}

// Total returns the epoch time (phases are synchronous and serialized).
func (b Breakdown) Total() float64 { return b.Compute + b.Comm + b.Reduce }

// computeSeconds estimates the straggler partition's forward+backward FLOPs
// for a SAGE stack: aggregation touches every local edge per layer
// (2·E·d FLOPs) and the dense update is a (n × 2d)·(2d × d') GEMM. Backward
// roughly doubles both.
func computeSeconds(w Workload, p float64, prof Profile) float64 {
	var flops float64
	edges := float64(w.MaxLocalEdges) * p // sampled halo edges scale with p
	n := float64(w.MaxInner)
	for l := range w.LayerIn {
		din := float64(w.LayerIn[l])
		dout := float64(w.LayerOut[l])
		agg := 2 * edges * din
		gemm := 2 * n * (2 * din) * dout
		flops += 3 * (agg + gemm) // fwd + ~2x bwd
	}
	return flops / prof.GPUFlops
}

// commSeconds converts the straggler's boundary feature traffic into time:
// forward sends every layer's input rows, backward all but the first.
func commSeconds(bd float64, w Workload, prof Profile) float64 {
	var bytes float64
	for l, d := range w.LayerIn {
		bytes += bd * float64(d) * 4 // forward
		if l >= 1 {
			bytes += bd * float64(d) * 4 // backward
		}
	}
	msgs := float64(2*len(w.LayerIn)-1) * float64(w.K-1)
	return bytes/prof.LinkBandwidth + msgs*prof.LinkLatency
}

// reduceSeconds models a bandwidth-optimal gradient AllReduce.
func reduceSeconds(w Workload, prof Profile) float64 {
	if w.K <= 1 {
		return 0
	}
	bytes := float64(w.Params) * 4 * 2 * float64(w.K-1) / float64(w.K)
	return bytes/prof.LinkBandwidth + float64(2*(w.K-1))*prof.LinkLatency
}

// EstimateBNS projects one BNS-GCN epoch at sampling rate p (p=1 is vanilla
// partition parallelism).
func EstimateBNS(w Workload, p float64, prof Profile) Breakdown {
	return Breakdown{
		Compute: computeSeconds(w, p, prof),
		Comm:    commSeconds(float64(w.MaxBoundary)*p, w, prof),
		Reduce:  reduceSeconds(w, prof),
	}
}
