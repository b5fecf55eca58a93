package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// refSoftmaxCE is SoftmaxLoss.Into as a serial loop with one math.Exp
// per element: the form the row-parallel, staged loss must reproduce bit for
// bit.
func refSoftmaxCE(grad, logits *tensor.Matrix, labels []int32, mask []bool) float64 {
	grad.Zero()
	count := 0
	for i := 0; i < logits.Rows; i++ {
		if mask[i] {
			count++
		}
	}
	if count == 0 {
		return 0
	}
	inv := 1 / float64(count)
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		if !mask[i] {
			continue
		}
		row := logits.Row(i)
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - mx))
		}
		logZ := math.Log(sum) + float64(mx)
		y := labels[i]
		loss += (logZ - float64(row[y])) * inv
		g := grad.Row(i)
		for j, v := range row {
			p := math.Exp(float64(v) - logZ)
			g[j] = float32(p * inv)
		}
		g[y] -= float32(inv)
	}
	return loss
}

// refSigmoidBCE is SigmoidBCEInto with one math.Exp per use.
func refSigmoidBCE(grad, logits, targets *tensor.Matrix, mask []bool) float64 {
	grad.Zero()
	count := 0
	for i := 0; i < logits.Rows; i++ {
		if mask[i] {
			count++
		}
	}
	if count == 0 {
		return 0
	}
	inv := 1 / (float64(count) * float64(logits.Cols))
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		if !mask[i] {
			continue
		}
		lrow, trow, grow := logits.Row(i), targets.Row(i), grad.Row(i)
		for j, x := range lrow {
			t := float64(trow[j])
			fx := float64(x)
			loss += (math.Max(fx, 0) - fx*t + math.Log1p(math.Exp(-math.Abs(fx)))) * inv
			sig := 1 / (1 + math.Exp(-fx))
			grow[j] = float32((sig - t) * inv)
		}
	}
	return loss
}

// lossFixture returns rows×cols logits with scale-sized spread (some rows
// reaching the exp kernel's fallback range when scale is large), labels in
// range and a mask keeping about two thirds of the rows.
func lossFixture(rows, cols int, scale float64, seed uint64) (*tensor.Matrix, []int32, []bool) {
	rng := tensor.NewRNG(seed)
	logits := tensor.New(rows, cols)
	for i := range logits.Data {
		logits.Data[i] = float32(rng.NormFloat64() * scale)
	}
	labels := make([]int32, rows)
	mask := make([]bool, rows)
	for i := range labels {
		labels[i] = int32(rng.Intn(cols))
		mask[i] = rng.Float64() < 0.66
	}
	return logits, labels, mask
}

// TestLossesMatchSerialMathExp: the softmax loss on the row dispatcher and
// both losses on the staged exp kernel give the serial math.Exp loop's loss
// and gradient bits, at pool widths 1, 2 and 4, for rows shorter than a
// kernel group, rows crossing a staging block, and logits spread far enough
// that whole groups fall back to math.Exp. The gradient starts as NaN, so a
// row the pass leaves unwritten shows, and one SoftmaxLoss serves every call,
// so slots left from a larger call must not leak into a smaller one.
func TestLossesMatchSerialMathExp(t *testing.T) {
	var sl SoftmaxLoss
	for _, width := range []int{1, 2, 4} {
		restore := tensor.ForceParallelism(width)
		for _, shape := range []struct {
			rows, cols int
			scale      float64
		}{{300, 3, 1}, {1000, 32, 4}, {200, 70, 2}, {500, 41, 400}, {130, 129, 30}} {
			name := fmt.Sprintf("width %d, %dx%d, scale %v", width, shape.rows, shape.cols, shape.scale)
			logits, labels, mask := lossFixture(shape.rows, shape.cols, shape.scale, uint64(shape.rows+shape.cols))
			want := tensor.New(shape.rows, shape.cols)
			wantLoss := refSoftmaxCE(want, logits, labels, mask)
			got := tensor.New(shape.rows, shape.cols)
			got.Fill(float32(math.NaN()))
			if loss := sl.Into(got, logits, labels, mask); math.Float64bits(loss) != math.Float64bits(wantLoss) {
				t.Errorf("%s: softmax loss %v, serial %v", name, loss, wantLoss)
			}
			sameBits(t, name+": softmax grad", got.Data, want.Data)

			targets := tensor.New(shape.rows, shape.cols)
			for i := range targets.Data {
				targets.Data[i] = float32(labels[i%shape.rows] % 2)
			}
			wantLoss = refSigmoidBCE(want, logits, targets, mask)
			got.Fill(float32(math.NaN()))
			if loss := SigmoidBCEInto(got, logits, targets, mask); math.Float64bits(loss) != math.Float64bits(wantLoss) {
				t.Errorf("%s: BCE loss %v, serial %v", name, loss, wantLoss)
			}
			sameBits(t, name+": BCE grad", got.Data, want.Data)
		}
		restore()
	}
}

// TestSoftmaxCrossEntropyRejectsBadLabel: a masked row whose label is
// outside [0, cols) panics on the calling goroutine, naming the row and the
// label, before any row runs on the pool; an unmasked one is never read.
func TestSoftmaxCrossEntropyRejectsBadLabel(t *testing.T) {
	defer tensor.ForceParallelism(4)()
	logits, labels, mask := lossFixture(1000, 8, 1, 2)
	grad := tensor.New(1000, 8)
	var sl SoftmaxLoss
	mask[700], labels[700] = false, 99
	sl.Into(grad, logits, labels, mask)
	for _, y := range []int32{-1, 8} {
		mask[500], labels[500] = true, y
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if want := fmt.Sprintf("row 500 has label %d, outside [0,8)", y); !strings.Contains(msg, want) {
					t.Errorf("label %d: panic %q, want one containing %q", y, msg, want)
				}
			}()
			sl.Into(grad, logits, labels, mask)
		}()
	}
}

// BenchmarkLossWorkload times the softmax loss at the k1-dense benchmark
// workload's shape — 12,000 rows of 32 logits, about two thirds of them
// training rows — beside the serial one-math.Exp-at-a-time loop it replaced.
func BenchmarkLossWorkload(b *testing.B) {
	logits, labels, mask := lossFixture(12000, 32, 3, 44)
	grad := tensor.New(12000, 32)
	var sl SoftmaxLoss
	b.Run("softmax", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sl.Into(grad, logits, labels, mask)
		}
	})
	b.Run("serial-math.Exp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refSoftmaxCE(grad, logits, labels, mask)
		}
	})
}
