package tensor

import "math"

// Dropout kernels: the keep-mask draw and the two passes that read the mask.
// A mask is a bitset, one bit per element in element order, packed 64 to a
// word; the words are little-endian, so byte k of the bitset holds elements
// 8k..8k+7 — one byte per eight-float YMM.
//
// The draw keeps the stream of Float32: bit i is set exactly when the draw
// Float32 would make there is below keep. Float32 is m/2²⁴ for the 24-bit
// integer m = u>>40, so m/2²⁴ < keep ⟺ m < ⌈keep·2²⁴⌉ (both sides are exact
// in float32), and the draw compares integers. Every path writes the same
// bits and leaves the stream at the same state.

// keepThreshold returns ⌈keep·2²⁴⌉ clamped to [0, 2²⁴]: the count of 24-bit
// draws m with m/2²⁴ < keep. A NaN keep keeps nothing, as Float32() < NaN is
// false.
func keepThreshold(keep float32) uint64 {
	if !(keep > 0) {
		return 0
	}
	if keep >= 1 {
		return 1 << 24
	}
	return uint64(math.Ceil(float64(keep) * (1 << 24)))
}

// KeepBits draws the keep bits of elements [lo, hi) of bits, in order, one
// draw each: bit i is set exactly when that draw's Float32 is below keep, and
// the stream advances by hi−lo draws. Only bits [lo, hi) are written — the
// bits around them in lo's and hi's words stay — so ranges may be drawn in
// any order, and a word may hold bits of two ranges. An empty range does
// nothing.
func (r *RNG) KeepBits(bits []uint64, lo, hi int, keep float32) {
	t := keepThreshold(keep)
	s := r.state
	if a, b := maskSpan(lo, hi); b > a {
		_, _ = bits[a>>6], bits[(b-1)>>6]
		s = keepBitsGo(bits, lo, a, s, t)
		var lanes [8]uint64
		for j := range 4 { // even draws in the first vector, odd in the second
			lanes[j] = s + uint64(2*j+1)*splitmixGamma
			lanes[4+j] = s + uint64(2*j+2)*splitmixGamma
		}
		keepBytesAVX2(&bits[0], a>>3, (b-a)>>3, &lanes, t)
		s += uint64(b-a) * splitmixGamma
		lo = b
	}
	r.state = keepBitsGo(bits, lo, hi, s, t)
}

// keepBitsGo is KeepBits in Go from stream state s against the threshold t,
// one word at a time and branch-free per element; it returns the state after
// the last draw. The final z ^= z>>31 of Uint64 is left out: it cannot
// change bits 40–63, the only ones compared.
func keepBitsGo(bits []uint64, lo, hi int, s, t uint64) uint64 {
	for i := lo; i < hi; {
		end := min(hi, i|63+1)
		b, n := uint(i)&63, uint(end-i)
		word := bits[i>>6] &^ ((1<<n - 1) << b)
		for j := b; j < b+n; j++ {
			s += splitmixGamma
			z := (s ^ s>>30) * splitmixMul1
			z = (z ^ z>>27) * splitmixMul2
			word |= (z>>40 - t) >> 63 << j // z>>40 < t: the difference wraps
		}
		bits[i>>6] = word
		i = end
	}
	return s
}

// MaskScale writes dst[i] for i in [lo, hi) from src[i]: src[i]·scale where
// bit i of bits is set, a literal +0 where it is clear — the product's bits
// ANDed with all ones or none, so NaN, ±0 and ±Inf come out of the multiply
// as IEEE makes them and nothing branches on a bit. dst and src may be one
// slice.
func MaskScale(dst, src []float32, bits []uint64, lo, hi int, scale float32) {
	if a, b := maskSpan(lo, hi); b > a {
		_, _, _ = dst[b-1], src[b-1], bits[(b-1)>>6]
		maskScaleGo(dst, src, bits, lo, a, scale)
		maskScaleAVX2(&dst[a], &src[a], &bits[0], a>>3, (b-a)>>3, scale)
		lo = b
	}
	maskScaleGo(dst, src, bits, lo, hi, scale)
}

// MaskMul multiplies g[i] for i in [lo, hi) in place by scale where bit i of
// bits is set and by +0 where it is clear (so a dropped −1 is −0 and a
// dropped NaN stays NaN).
func MaskMul(g []float32, bits []uint64, lo, hi int, scale float32) {
	if a, b := maskSpan(lo, hi); b > a {
		_, _ = g[b-1], bits[(b-1)>>6]
		maskMulGo(g, bits, lo, a, scale)
		maskMulAVX2(&g[a], &bits[0], a>>3, (b-a)>>3, scale)
		lo = b
	}
	maskMulGo(g, bits, lo, hi, scale)
}

// maskSpan returns the span [a, b) of [lo, hi) made of whole mask bytes, the
// part the assembly kernels take, or an empty span without AVX2.
func maskSpan(lo, hi int) (a, b int) {
	if !useAVX2 {
		return 0, 0
	}
	a = min(hi, (lo+7)&^7)
	return a, a + (hi-a)&^7
}

// maskScaleGo is MaskScale in Go, one mask word at a time.
func maskScaleGo(dst, src []float32, bits []uint64, lo, hi int, scale float32) {
	for i := lo; i < hi; {
		end := min(hi, i|63+1)
		word := bits[i>>6] >> (uint(i) & 63)
		out := dst[i:end]
		for j, v := range src[i:end] {
			out[j] = math.Float32frombits(math.Float32bits(v*scale) & -uint32(word&1))
			word >>= 1
		}
		i = end
	}
}

// maskMulGo is MaskMul in Go, one mask word at a time.
func maskMulGo(g []float32, bits []uint64, lo, hi int, scale float32) {
	mul := [2]float32{0, scale}
	for i := lo; i < hi; {
		end := min(hi, i|63+1)
		word := bits[i>>6] >> (uint(i) & 63)
		row := g[i:end]
		for j := range row {
			row[j] *= mul[word&1]
			word >>= 1
		}
		i = end
	}
}
