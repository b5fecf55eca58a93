//go:build amd64

package tensor

// useAVX2 gates the assembly kernels: true when the CPU supports AVX2+FMA
// and the OS saves the YMM register state. Detection runs once at package
// init; the pure-Go fallbacks in matmul.go remain the reference semantics.
var useAVX2 = detectAVX2FMA()

// cpuid executes the CPUID instruction for the given leaf and subleaf.
//
//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
//
//go:noescape
func xgetbv() (eax, edx uint32)

// axpy4AVX2 computes dst[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] +
// a[3]*b3[j] for j in [0,n). n must be a multiple of 8. The row kernels
// replaced its per-panel calls; it stays as the tests' reference for their
// bits.
//
//go:noescape
func axpy4AVX2(dst, b0, b1, b2, b3 *float32, n int, a *[4]float32)

//go:generate go run gen_rowacc.go

// sumRowsAVX2 computes dst[j] += Σ_t x[idx[t]·ldx + j] over the terms t <
// terms and j < 8·lanes (lanes in [1,8]), holding the row in registers (see
// rowacc.go and rowacc_amd64.s). It returns false, having stored nothing, if
// a row id is outside [0,xrows).
//
//go:noescape
func sumRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx, xrows int) (ok bool)

// axpyRowsAVX2 computes dst[j] += Σ_t coef[t·cstride]·x[idx[t]·ldx + j] over
// the terms t < terms and j < 8·lanes (lanes in [1,8]), holding the row in
// registers; skip != 0 passes over all-±0 panels and ±0 single terms. It
// returns false, having stored nothing, if a row id it reads is outside
// [0,xrows).
//
//go:noescape
func axpyRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx, xrows int, coef *float32, cstride, skip int) (ok bool)

// scaledRowsAVX2 computes dst[j] += Σ_t scale[idx[t]]·x[idx[t]·ldx + j] over
// the terms t < terms and j < 8·lanes (lanes in [1,8]): axpyRowsAVX2 without
// skip, each coefficient read at its row's id. It returns false, having
// stored nothing, if a row id is outside [0,xrows); scale must hold xrows
// entries.
//
//go:noescape
func scaledRowsAVX2(dst *float32, lanes int, idx *int32, terms int, x *float32, ldx, xrows int, scale *float32) (ok bool)

// dotRowsAVX2 writes out[t] = Σ_j a[j]·x[idx[t]·ldx + j] over j < n (n a
// multiple of 8) for the terms t < terms, each dot with dot4AVX2's and
// dotAVX2's chain (see rowacc.go and simd_amd64.s). It returns false at the
// first four (or single) terms holding a row id outside [0,xrows), before
// storing their dots.
//
//go:noescape
func dotRowsAVX2(out, a *float32, n int, idx *int32, terms int, x *float32, ldx, xrows int) (ok bool)

// dot4AVX2 writes the four dot products a·b0, a·b1, a·b2, a·b3 over the
// first n elements into out. n must be a multiple of 8. dotRowsAVX2 replaced
// its per-four-column calls; it stays as the tests' reference for their bits.
//
//go:noescape
func dot4AVX2(a, b0, b1, b2, b3 *float32, n int, out *[4]float32)

// dotAVX2 returns the dot product of a and b over the first n elements.
// n must be a multiple of 8; callers handle the scalar tail. Its lane
// reduction is one lane of dot4AVX2's, so it gives the same bits.
//
//go:noescape
func dotAVX2(a, b *float32, n int) float32

// addAVX2 computes dst[j] += src[j] for j in [0,n), n a multiple of 8.
//
//go:noescape
func addAVX2(dst, src *float32, n int)

// axpyAVX2 computes dst[j] += a*src[j] for j in [0,n), n a multiple of 8.
//
//go:noescape
func axpyAVX2(dst, src *float32, n int, a float32)

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// The OS must have enabled XMM and YMM state saving (XCR0 bits 1,2).
	xa, _ := xgetbv()
	if xa&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// keepBytesAVX2 writes bytes [from, from+n) of the bitset at bits with the
// keep bits of 8n SplitMix64 draws; lanes holds the states of byte from's
// even draws, then its odd ones (see dropout_amd64.s).
//
//go:noescape
func keepBytesAVX2(bits *uint64, from, n int, lanes *[8]uint64, t uint64)

// maskScaleAVX2 writes the 8n floats at dst from those at src, scaled where
// the bit of bytes [from, from+n) of the bitset at bits is set and +0 where it
// is clear.
//
//go:noescape
func maskScaleAVX2(dst, src *float32, bits *uint64, from, n int, scale float32)

// maskMulAVX2 multiplies the 8n floats at grad by scale where the bit of bytes
// [from, from+n) of the bitset at bits is set and by +0 where it is clear.
//
//go:noescape
func maskMulAVX2(grad *float32, bits *uint64, from, n int, scale float32)

// expAVX2 sets x[i] = math.Exp(x[i]) for i < done, four lanes at a time, and
// returns done: n (a multiple of 4), or the start of the first group with a
// lane outside [−708, 709], which it leaves untouched (see exp_amd64.s).
//
//go:noescape
func expAVX2(x *float64, n int) int
