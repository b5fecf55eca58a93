package tensor

import "math"

// ExpInPlace sets x[i] = math.Exp(x[i]) for every i, with math.Exp's bits on
// every input. With AVX2 it runs four lanes at a time through expAVX2, the
// amd64 math.Exp routine's FMA branch step for step (useAVX2 requires FMA,
// so math.Exp itself takes that branch); a group with a lane outside
// [−708, 709] — NaN, ±Inf, an overflowing or subnormal result — goes lane by
// lane through math.Exp, and so do the tail after the last whole group and
// every element when the kernel is unavailable.
func ExpInPlace(x []float64) {
	i := 0
	if useAVX2 {
		n := len(x) &^ 3
		for i < n {
			if i += expAVX2(&x[i], n-i); i < n {
				for j := i; j < i+4; j++ {
					x[j] = math.Exp(x[j])
				}
				i += 4
			}
		}
	}
	for ; i < len(x); i++ {
		x[i] = math.Exp(x[i])
	}
}
