package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// refDropout is dropout as it stood before the mask became a bitset, kept
// straight-line as the reference the bit mask is pinned against: a float32
// mask holding scale or 0 per element, an output written beside the input, a
// gradient written beside the output gradient.
type refDropout struct {
	rate float32
	rng  *tensor.RNG
	mask []float32
}

func newRefDropout(rate float32, rng *tensor.RNG, elems int) *refDropout {
	return &refDropout{rate: rate, rng: rng.Split(), mask: make([]float32, elems)}
}

// forward draws masks for elements [lo, hi) and writes their outputs.
func (r *refDropout) forward(out, src []float32, lo, hi int) {
	r.draw(lo, hi)
	r.apply(out, src, lo, hi)
}

// draw draws masks for elements [lo, hi) without output.
func (r *refDropout) draw(lo, hi int) {
	keep := 1 - r.rate
	scale := 1 / keep
	for i := lo; i < hi; i++ {
		if r.rng.Float32() < keep {
			r.mask[i] = scale
		} else {
			r.mask[i] = 0
		}
	}
}

// apply writes the outputs of elements [lo, hi) from masks drawn earlier.
func (r *refDropout) apply(out, src []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		if m := r.mask[i]; m != 0 {
			out[i] = src[i] * m
		} else {
			out[i] = 0
		}
	}
}

// backward returns dOut routed through the mask.
func (r *refDropout) backward(dOut []float32) []float32 {
	dx := make([]float32, len(dOut))
	for i, v := range dOut {
		dx[i] = v * r.mask[i]
	}
	return dx
}

// dropForward is a whole dropout pass in one piece over x's rows, the way a
// caller without row chunks runs it: a training pass writes a fresh matrix
// and leaves x alone, an identity pass returns x itself.
func dropForward(d *Dropout, x *tensor.Matrix, train bool) *tensor.Matrix {
	out := x
	if train && d.Rate != 0 {
		out = tensor.New(x.Rows, x.Cols)
	}
	d.ForwardBegin(out, x, train, nil, 0)
	d.ForwardRows(0, x.Rows)
	return out
}

// dropBackward routes g, the gradient of the last pass's destination,
// through its mask in place over every row, and returns g.
func dropBackward(d *Dropout, g *tensor.Matrix) *tensor.Matrix {
	d.BackwardRows(g, 0, g.Rows)
	return g
}

// specialMat is a random matrix with every float32 special sprinkled through
// it, so kept and dropped elements both meet each of them.
func specialMat(rng *tensor.RNG, rows, cols int) *tensor.Matrix {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), -1, math.MaxFloat32, math.SmallestNonzeroFloat32,
	}
	m := randMat(rng, rows, cols)
	for i := range m.Data {
		if rng.Float32() < 0.4 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// TestDropoutBitMaskMatchesReference: the in-place and the
// destination-beside-source passes over a packed bit mask produce, bit for
// bit, what the float32-mask dropout's one ascending pass did — forward
// (ForwardRows chunks out of order, then rows the caller wrote applied in
// blocks out of order, as the halo drain applies each peer's) and backward — on
// inputs holding ±0, NaN and ±Inf, with column counts that let a mask word
// straddle rows, and on a bitset reused from a larger pass (stale bits).
func TestDropoutBitMaskMatchesReference(t *testing.T) {
	const rows, cut = 23, 9
	for _, cols := range []int{48, 41, 1, 7, 64} {
		for _, inPlace := range []bool{false, true} {
			name := fmt.Sprintf("cols=%d/inplace=%v", cols, inPlace)
			rng := tensor.NewRNG(uint64(31 + cols))
			d := NewDropout(0.4, tensor.NewRNG(9))
			ref := newRefDropout(0.4, tensor.NewRNG(9), rows*cols)

			// A larger warm-up pass leaves set bits all over the bitset; the
			// reference skips the draws it made.
			dropForward(d, randMat(rng, rows+5, cols), true)
			ref.rng.Skip(uint64((rows + 5) * cols))

			for pass := 0; pass < 2; pass++ {
				x := specialMat(rng, rows, cols)
				g := specialMat(rng, rows, cols)
				want := make([]float32, rows*cols)
				ref.forward(want, x.Data, 0, rows*cols)
				wantDX := ref.backward(g.Data)

				dst, src := tensor.New(rows, cols), x.Clone()
				if inPlace {
					dst = src
				}
				d.ForwardBegin(dst, src, true, nil, 0)
				d.ForwardRows(4, cut)
				d.ForwardRows(0, 4)
				if !inPlace {
					// The late rows land in the destination, as halo rows do.
					copy(dst.Data[cut*cols:], x.Data[cut*cols:])
				}
				d.ApplyMaskedRows(20, rows)
				d.ApplyMaskedRows(cut, 12)
				d.ApplyMaskedRows(12, 20)
				sameBits(t, name+"/forward", dst.Data, want)
				if !inPlace {
					sameBits(t, name+"/source untouched", src.Data, x.Data)
				}

				d.BackwardRows(g, cut, rows)
				d.BackwardRows(g, 0, cut)
				sameBits(t, name+"/backward", g.Data, wantDX)
			}
			if d.RNGState() != ref.rng.State() {
				t.Fatalf("%s: stream at %#x, the reference's at %#x", name, d.RNGState(), ref.rng.State())
			}
		}
	}
}

// TestDropoutOneShotLeavesSourceAlone: a pass over every row at once that
// writes beside its source — the first layer's, handed the dataset's
// features — must not write the source, and its backward masks the gradient
// it is given in place.
func TestDropoutOneShotLeavesSourceAlone(t *testing.T) {
	x := specialMat(tensor.NewRNG(5), 12, 41)
	keepX := x.Clone()
	d := NewDropout(0.4, tensor.NewRNG(9))
	ref := newRefDropout(0.4, tensor.NewRNG(9), len(x.Data))
	want := make([]float32, len(x.Data))
	ref.forward(want, x.Data, 0, len(x.Data))

	out := tensor.New(x.Rows, x.Cols)
	d.ForwardBegin(out, x, true, nil, 0)
	d.ForwardRows(0, x.Rows)
	sameBits(t, "forward", out.Data, want)
	sameBits(t, "source", x.Data, keepX.Data)

	g := specialMat(tensor.NewRNG(6), 12, 41)
	wantDX := ref.backward(g.Data)
	d.BackwardRows(g, 0, g.Rows)
	sameBits(t, "backward", g.Data, wantDX)
}

// TestDropoutRejectsContractViolations: the destination's extent, the halo
// placement's size and the backward's shape are checked, and the panic names
// the layer, the rows asked and the rows there are.
func TestDropoutRejectsContractViolations(t *testing.T) {
	begin := func() (*Dropout, *tensor.Matrix) {
		d := NewDropout(0.4, tensor.NewRNG(9))
		d.Layer = 2
		x := randMat(tensor.NewRNG(1), 10, 5)
		d.ForwardBegin(x, x, true, nil, 0)
		return d, x
	}
	for _, tc := range []struct {
		name, want string
		pass       func(d *Dropout, x *tensor.Matrix)
	}{
		{"inverted", "dropout layer 2: forward rows [5,3) asked, the destination has 10 rows",
			func(d *Dropout, _ *tensor.Matrix) { d.ForwardRows(5, 3) }},
		{"past destination", "dropout layer 2: forward rows [8,11) asked, the destination has 10 rows",
			func(d *Dropout, _ *tensor.Matrix) { d.ForwardRows(8, 11) }},
		{"short destination", "dropout layer 2: forward rows [0,10) asked, the destination has 6 rows",
			func(d *Dropout, x *tensor.Matrix) {
				d.ForwardBegin(tensor.New(6, 5), x, true, nil, 0)
				d.ForwardRows(0, 10)
			}},
		{"short source", "dropout layer 2: forward rows [0,10) asked, the source has 6 rows",
			func(d *Dropout, x *tensor.Matrix) {
				d.ForwardBegin(x, tensor.New(6, 5), true, nil, 0)
				d.ForwardRows(0, 10)
			}},
		{"column mismatch", "dropout layer 2: destination has 5 columns, source 4",
			func(d *Dropout, x *tensor.Matrix) { d.ForwardBegin(x, tensor.New(10, 4), true, nil, 0) }},
		{"halo past destination", "dropout layer 2: 11 halo rows placed, the destination has 10 rows",
			func(d *Dropout, x *tensor.Matrix) { d.ForwardBegin(x, x, true, make([]int32, 11), 20) }},
		{"backward rows", "dropout layer 2: backward over a 9x5 gradient, the forward pass drew a 10x5 mask",
			func(d *Dropout, _ *tensor.Matrix) { d.ForwardRows(0, 10); d.BackwardRows(tensor.New(9, 5), 0, 9) }},
		{"backward cols", "dropout layer 2: backward over a 10x4 gradient, the forward pass drew a 10x5 mask",
			func(d *Dropout, _ *tensor.Matrix) { d.ForwardRows(0, 10); d.BackwardRows(tensor.New(10, 4), 0, 10) }},
	} {
		d, x := begin()
		panicsWith(t, tc.name, tc.want, func() { tc.pass(d, x) })
	}
	// The extent holds for an identity pass too: a schedule bug must not wait
	// for training mode to show.
	d, x := begin()
	d.ForwardBegin(x, x, false, nil, 0)
	panicsWith(t, "identity past destination", "forward rows [8,11) asked, the destination has 10 rows",
		func() { d.ForwardRows(8, 11) })

	// A rate outside [0,1) — NaN among them, which no comparison rejects —
	// has no layer.
	for _, rate := range []float32{-0.1, 1, float32(math.NaN()), float32(math.Inf(1))} {
		panicsWith(t, fmt.Sprintf("rate %v", rate), fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate),
			func() { NewDropout(rate, tensor.NewRNG(9)) })
	}
}

// paramsOnlyGraph is a partition-shaped graph with halo rows and a
// zero-degree inner row.
func paramsOnlyGraph(rng *tensor.RNG, nIn, nBd int) *graph.Graph {
	g := localGraph(rng, nIn, nBd, 4, 0.4)
	// Strike out row 3's edges: the rows after it keep theirs.
	lo, hi := g.Indptr[3], g.Indptr[4]
	g.Indices = append(g.Indices[:lo:lo], g.Indices[hi:]...)
	for v := 4; v <= g.N; v++ {
		g.Indptr[v] -= hi - lo
	}
	return g
}

// TestSAGEBackwardParamsMatchesBackward: the parameters-only backward
// accumulates into DW and DB the bits the full Backward does — twice over, so
// the accumulation into a non-zero gradient is covered — allocates no dz and
// no dH, and rejects a dOut of the wrong shape the way BackwardBegin does.
func TestSAGEBackwardParamsMatchesBackward(t *testing.T) {
	const nIn, nBd, inDim, outDim = 37, 11, 9, 5
	rng := tensor.NewRNG(77)
	g := paramsOnlyGraph(rng, nIn, nBd)
	if g.Degree(3) != 0 {
		t.Fatal("fixture: row 3 must have no edges")
	}
	h := randMat(rng, g.N, inDim)
	invDeg := InvDegrees(g)
	full := newSAGE(g, inDim, outDim, ReLUAct, tensor.NewRNG(6))
	only := newSAGE(g, inDim, outDim, ReLUAct, tensor.NewRNG(6))
	for pass := 0; pass < 2; pass++ {
		dOut := randMat(rng, nIn, outDim)
		full.Forward(g, h, nIn, invDeg)
		full.Backward(dOut)
		only.Forward(g, h, nIn, invDeg)
		only.BackwardParams(dOut)
		sameBits(t, "sage/DW", only.DW.Data, full.DW.Data)
		sameBits(t, "sage/DB", only.DB.Data, full.DB.Data)
	}
	if only.dz != nil || only.dH != nil {
		t.Fatal("the parameters-only backward allocated an input-gradient matrix")
	}
	panicsWith(t, "sage/shape", fmt.Sprintf("SAGEConv backward shape %dx%d, want %dx%d", nIn-1, outDim, nIn, outDim),
		func() { only.BackwardParams(tensor.New(nIn-1, outDim)) })
	panicsWith(t, "sage/shape", fmt.Sprintf("SAGEConv backward shape %dx%d, want %dx%d", nIn, outDim+1, nIn, outDim),
		func() { only.BackwardParams(tensor.New(nIn, outDim+1)) })
}

// TestGATBackwardParamsMatchesBackward is the same pin for attention: DW, DA1
// and DA2, no dH, the shape check.
func TestGATBackwardParamsMatchesBackward(t *testing.T) {
	const nIn, nBd, inDim, outDim = 37, 11, 9, 5
	rng := tensor.NewRNG(78)
	g := paramsOnlyGraph(rng, nIn, nBd)
	h := randMat(rng, g.N, inDim)
	full := NewGATConv(inDim, outDim, ReLUAct, tensor.NewRNG(6))
	only := NewGATConv(inDim, outDim, ReLUAct, tensor.NewRNG(6))
	full.SetAgg(graph.NewAggIndex(g))
	only.SetAgg(graph.NewAggIndex(g))
	for pass := 0; pass < 2; pass++ {
		dOut := randMat(rng, nIn, outDim)
		full.Forward(g, h, nIn)
		full.Backward(dOut)
		only.Forward(g, h, nIn)
		only.BackwardParams(dOut)
		sameBits(t, "gat/DW", only.DW.Data, full.DW.Data)
		sameBits(t, "gat/DA1", only.DA1.Data, full.DA1.Data)
		sameBits(t, "gat/DA2", only.DA2.Data, full.DA2.Data)
	}
	if only.dH != nil {
		t.Fatal("the parameters-only backward allocated an input-gradient matrix")
	}
	panicsWith(t, "gat/shape", fmt.Sprintf("GATConv backward shape %dx%d, want %dx%d", nIn-1, outDim, nIn, outDim),
		func() { only.BackwardParams(tensor.New(nIn-1, outDim)) })
}

// BenchmarkDropoutWorkload times one dropout layer at the shape of one rank
// of the k4-full-tcp benchmark workload — 4,000 inner rows and 9,800 halo
// rows, at the input (48) and hidden (64) widths, rate 0.2: the forward over
// every row; the halo rows of a selection at p = 1 and p = 0.1, dealt to
// three peers at random and stored peer by peer (about 1.5 rows to a run of
// consecutive slots, as the workload's receive lists hold them) and drawn and
// masked a peer's block at a time; and
// the backward over every row.
func BenchmarkDropoutWorkload(b *testing.B) {
	const nIn, nBd = 4000, 9800
	rng := tensor.NewRNG(36)
	sel := map[string][]int32{"1": rowList(0, nBd)}
	for r := int32(0); r < nBd; r++ {
		if rng.Float32() < 0.1 {
			sel["0.1"] = append(sel["0.1"], r)
		}
	}
	for _, cols := range []int{48, 64} {
		x := randMat(rng, nIn+nBd, cols)
		out := tensor.New(nIn+nBd, cols)
		g := randMat(rng, nIn+nBd, cols)
		d := NewDropout(0.2, rng)
		b.Run(fmt.Sprintf("forward/cols=%d", cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.ForwardBegin(out, x, true, nil, 0)
				d.ForwardRows(0, nIn+nBd)
			}
		})
		for _, p := range []string{"1", "0.1"} {
			at := sel[p]
			space := &tensor.Matrix{Rows: nIn + len(at), Cols: cols, Data: out.Data[:(nIn+len(at))*cols]}
			order, ptr := ownerMajor(rng, at, 3)
			b.Run(fmt.Sprintf("halo/p=%s/cols=%d", p, cols), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.ForwardBegin(space, space, true, order, nBd)
					for j := 0; j < 3; j++ {
						d.ApplyMaskedRows(nIn+ptr[j], nIn+ptr[j+1])
					}
				}
			})
		}
		b.Run(fmt.Sprintf("backward/cols=%d", cols), func(b *testing.B) {
			d.ForwardBegin(out, x, true, nil, 0)
			d.ForwardRows(0, nIn+nBd)
			for i := 0; i < b.N; i++ {
				d.BackwardRows(g, 0, nIn+nBd)
			}
		})
	}
}
