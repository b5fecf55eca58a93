package tensor

import (
	"fmt"
	"math"
	"testing"
)

// checkExp runs ExpInPlace over a copy of x and fails on the first element
// whose bits differ from math.Exp's.
func checkExp(t *testing.T, name string, x []float64) {
	t.Helper()
	got := append([]float64(nil), x...)
	ExpInPlace(got)
	for i, v := range x {
		if want := math.Exp(v); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: exp(%v) [%#x] at %d of %d = %v [%#x], math.Exp gives %v [%#x]",
				name, v, math.Float64bits(v), i, len(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestExpTails: every length 0–7, alone and after whole groups, so each tail
// length meets the kernel both as the whole call and after it.
func TestExpTails(t *testing.T) {
	rng := NewRNG(3)
	for groups := 0; groups < 3; groups++ {
		for tail := 0; tail < 8; tail++ {
			x := make([]float64, 4*groups+tail)
			for i := range x {
				x[i] = (rng.Float64()*2 - 1) * 40
			}
			checkExp(t, fmt.Sprintf("%d groups + %d", groups, tail), x)
		}
	}
}

// TestExpFallbackLanes puts each input the kernel leaves to math.Exp at every
// lane of a group of in-range values, with whole in-range groups before and
// after it: NaN, ±Inf, both sides of the overflow threshold, the subnormal
// band of results and the edges of the kernel's range.
func TestExpFallbackLanes(t *testing.T) {
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 1), 709.78, 709.5, 710, 710.5, 711, 1e300,
		709, math.Nextafter(709, 1), math.Nextafter(709, 0),
		-708, math.Nextafter(-708, 0), math.Nextafter(-708, -1000),
		-708.5, -709, -720, -730, -740, -745, -745.1, -745.13321910194110842, -745.2, -746, -1e300,
		math.Copysign(0, -1), 0, 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 1e10,
	}
	rng := NewRNG(5)
	for _, s := range special {
		for lane := 0; lane < 4; lane++ {
			x := make([]float64, 12)
			for i := range x {
				x[i] = (rng.Float64()*2 - 1) * 700
			}
			x[4+lane] = s
			checkExp(t, fmt.Sprintf("%v at lane %d", s, lane), x)
		}
	}
	// Every lane a fallback, and groups mixing several kinds.
	checkExp(t, "all fallback", []float64{math.NaN(), math.Inf(1), 710, -745.2, -1e300, math.Inf(-1), 709.9, -708.1})
	checkExp(t, "mixed", []float64{1, math.NaN(), -3, -740, 2, 3, 709.79, -0.5})
}

// TestExpDenseSweep compares bits on 2²² float32 bit patterns spread evenly
// over the whole float32 range (every finite magnitude, ±Inf and NaNs), on
// 2²² softmax-shaped arguments — float64(float32(v−mx)) ≤ 0 over logits, and
// float64(v)−logZ, the loss's two passes — and on a uniform sweep of the
// kernel's range.
func TestExpDenseSweep(t *testing.T) {
	const n = 1 << 22
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(math.Float32frombits(uint32(i) << 10))
	}
	checkExp(t, "float32 bit sweep", x)

	rng := NewRNG(9)
	for i := 0; i < n; i += 32 {
		row := x[i : i+32]
		mx := float32(math.Inf(-1))
		logits := make([]float32, len(row))
		for j := range logits {
			logits[j] = float32(rng.NormFloat64() * float64(1+i%50))
			mx = max(mx, logits[j])
		}
		var sum float64
		for j, v := range logits {
			row[j] = float64(v - mx)
			sum += math.Exp(row[j])
		}
		if i%64 == 32 { // every other row takes the second pass's shape
			logZ := math.Log(sum) + float64(mx)
			for j, v := range logits {
				row[j] = float64(v) - logZ
			}
		}
	}
	checkExp(t, "softmax-shaped", x)

	for i := range x {
		x[i] = -708 + 1417*float64(i)/n
	}
	checkExp(t, "kernel range", x)
}
