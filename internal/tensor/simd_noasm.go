//go:build !amd64

package tensor

// useAVX2 is always false on non-amd64 platforms; the pure-Go kernels in
// matmul.go are used instead.
const useAVX2 = false

func axpy4AVX2(dst, b0, b1, b2, b3 *float32, n int, a *[4]float32) {
	panic("tensor: axpy4AVX2 unavailable on this platform")
}

func sumRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx, xrows int) bool {
	panic("tensor: sumRowsAVX2 unavailable on this platform")
}

func axpyRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx, xrows int, coef *float32, cstride, skip int) bool {
	panic("tensor: axpyRowsAVX2 unavailable on this platform")
}

func scaledRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx, xrows int, scale *float32) bool {
	panic("tensor: scaledRowsAVX2 unavailable on this platform")
}

func dotRowsAVX2(out, a *float32, n int, idx *int32, terms int, x *float32, ldx, xrows int) bool {
	panic("tensor: dotRowsAVX2 unavailable on this platform")
}

func dot4AVX2(a, b0, b1, b2, b3 *float32, n int, out *[4]float32) {
	panic("tensor: dot4AVX2 unavailable on this platform")
}

func dotAVX2(a, b *float32, n int) float32 {
	panic("tensor: dotAVX2 unavailable on this platform")
}

func addAVX2(dst, src *float32, n int) {
	panic("tensor: addAVX2 unavailable on this platform")
}

func axpyAVX2(dst, src *float32, n int, a float32) {
	panic("tensor: axpyAVX2 unavailable on this platform")
}

func keepBytesAVX2(bits *uint64, from, n int, lanes *[8]uint64, t uint64) {
	panic("tensor: keepBytesAVX2 unavailable on this platform")
}

func maskScaleAVX2(dst, src *float32, bits *uint64, from, n int, scale float32) {
	panic("tensor: maskScaleAVX2 unavailable on this platform")
}

func maskMulAVX2(grad *float32, bits *uint64, from, n int, scale float32) {
	panic("tensor: maskMulAVX2 unavailable on this platform")
}

func expAVX2(x *float64, n int) int {
	panic("tensor: expAVX2 unavailable on this platform")
}
