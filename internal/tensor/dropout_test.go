package tensor

import (
	"fmt"
	"math"
	"testing"
)

// keepPaths are the two ways keep bits are drawn: KeepBits as dispatched, and
// the Go loop it runs without AVX2 (and around the assembly's whole bytes).
var keepPaths = map[string]func(r *RNG, bits []uint64, lo, hi int, keep float32){
	"KeepBits": (*RNG).KeepBits,
	"go": func(r *RNG, bits []uint64, lo, hi int, keep float32) {
		r.state = keepBitsGo(bits, lo, hi, r.state, keepThreshold(keep))
	},
}

// TestKeepBitsMatchesFloat32Draw: KeepBits, and the Go loop it runs without
// AVX2, set bit i exactly when the reference draw Float32() < keep holds, at
// every start offset in a word, for every length to 200 and at keep rates
// from 1e-7 to 1; every bit outside [lo, hi) stays, in lo's and hi's words
// too, and the stream ends where hi−lo Float32 draws end.
func TestKeepBitsMatchesFloat32Draw(t *testing.T) {
	const words = 7
	fill := NewRNG(3)
	stale := make([]uint64, words)
	for i := range stale {
		stale[i] = fill.Uint64()
	}
	for _, keep := range []float32{0.8, 0.5, 1.0 / 3, 1 - 0.4, 1e-7, 0.99999994, 1} {
		for name, draw := range keepPaths {
			seed := uint64(11)
			for off := 0; off < 64; off++ {
				for n := 0; n <= 200; n++ {
					lo, hi := 64+off, 64+off+n
					seed++
					ref := NewRNG(seed)
					want := append([]uint64(nil), stale...)
					for i := lo; i < hi; i++ {
						want[i>>6] &^= 1 << (uint(i) & 63)
						if ref.Float32() < keep {
							want[i>>6] |= 1 << (uint(i) & 63)
						}
					}
					got := append([]uint64(nil), stale...)
					r := NewRNG(seed)
					draw(r, got, lo, hi, keep)
					for w := range got {
						if got[w] != want[w] {
							t.Fatalf("%s keep=%v [%d,%d): word %d = %#016x, want %#016x", name, keep, lo, hi, w, got[w], want[w])
						}
					}
					if r.State() != ref.State() {
						t.Fatalf("%s keep=%v [%d,%d): stream at %#x, %d draws leave %#x", name, keep, lo, hi, r.State(), n, ref.State())
					}
				}
			}
		}
	}
}

// stateFor returns the SplitMix64 state whose next Uint64 is u: the output
// mix is a bijection, undone step by step.
func stateFor(u uint64) uint64 {
	unshift := func(y uint64, k uint) uint64 { // inverts y = x ^ x>>k
		x := y
		for i := uint(0); i < 64/k; i++ {
			x = y ^ x>>k
		}
		return x
	}
	inverse := func(c uint64) uint64 { // c·inverse(c) = 1 mod 2⁶⁴, c odd
		x := c
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z := unshift(u, 31)
	z = unshift(z*inverse(splitmixMul2), 27)
	z = unshift(z*inverse(splitmixMul1), 30)
	return z - splitmixGamma
}

// TestKeepBitsAtThreshold: a draw whose top 24 bits m sit on the threshold
// ⌈keep·2²⁴⌉, one below or one above it, is kept exactly when its Float32 is
// below keep — for keeps whose threshold is an integer product and ones
// where it is rounded up, and for the keeps that clamp (≤ 0, NaN, ≥ 1). The
// draw is placed at each of sixteen places of an unaligned run, so it lands
// in the Go head, an assembly lane and the Go tail.
func TestKeepBitsAtThreshold(t *testing.T) {
	keeps := []float32{0, -1, float32(math.NaN()), 1, 2, float32(math.Inf(1)), math.SmallestNonzeroFloat32,
		1e-7, 0.8, 1 - 0.4, 0.5, 1.0 / 3, 0.99999994}
	const lo, n = 3, 16
	for _, keep := range keeps {
		th := int64(keepThreshold(keep))
		for _, m := range []int64{0, th - 1, th, th + 1, 1<<24 - 1} {
			if m < 0 || m >= 1<<24 {
				continue
			}
			for _, low := range []uint64{0, 1<<40 - 1} {
				u := uint64(m)<<40 | low
				if NewRNG(stateFor(u)).Uint64() != u {
					t.Fatalf("stateFor(%#x) does not draw it", u)
				}
				for k := 0; k < n; k++ {
					s := stateFor(u) - uint64(k)*splitmixGamma
					ref := NewRNG(s)
					ref.Skip(uint64(k))
					want := ref.Float32() < keep
					for name, draw := range keepPaths {
						bits := make([]uint64, 1)
						draw(NewRNG(s), bits, lo, lo+n, keep)
						if got := bits[0]>>(lo+k)&1 == 1; got != want {
							t.Fatalf("%s keep=%v: draw %d with m=%d (threshold %d) kept=%v, Float32 compare says %v", name, keep, k, m, th, got, want)
						}
					}
				}
			}
		}
	}
}

// maskData is n floats with every float32 special — NaN, ±0, ±Inf,
// subnormals, MaxFloat32 — sprinkled among normal values.
func maskData(rng *RNG, n int) []float32 {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), math.MaxFloat32,
	}
	v := make([]float32, n)
	for i := range v {
		if rng.Float32() < 0.4 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

func sameFloatBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %#08x, want %#08x", name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestMaskScaleMulMatchScalar: MaskScale and MaskMul, and the Go loops they
// run without AVX2, give the per-element reference's bits — v·scale or a
// literal +0 forward, g·scale or g·0 backward — at every start and end
// alignment, on data holding NaN, ±0, ±Inf and subnormals, in place and
// beside the source, and leave every element outside [lo, hi) alone.
func TestMaskScaleMulMatchScalar(t *testing.T) {
	const n = 200
	rng := NewRNG(17)
	bits := make([]uint64, (n+63)/64)
	for i := range bits {
		bits[i] = rng.Uint64()
	}
	bit := func(i int) bool { return bits[i>>6]>>(uint(i)&63)&1 != 0 }
	src, g0 := maskData(rng, n), maskData(rng, n)
	scales := []float32{1 / (1 - float32(0.2)), 1 / (1 - float32(0.4)), 3, 1}
	type scaleFunc func(dst, src []float32, bits []uint64, lo, hi int, scale float32)
	type mulFunc func(g []float32, bits []uint64, lo, hi int, scale float32)
	for _, path := range []struct {
		name  string
		scale scaleFunc
		mul   mulFunc
	}{{"kernel", MaskScale, MaskMul}, {"go", maskScaleGo, maskMulGo}} {
		for _, scale := range scales {
			for lo := 0; lo < 72; lo++ {
				for _, hi := range []int{lo, lo + 1, lo + 7, lo + 8, lo + 9, lo + 63, lo + 64, lo + 65, n - 1, n} {
					if hi < lo || hi > n {
						continue
					}
					name := fmt.Sprintf("%s scale=%v [%d,%d)", path.name, scale, lo, hi)
					wantOut, wantG := make([]float32, n), append([]float32(nil), g0...)
					for i := range wantOut {
						wantOut[i] = -7
					}
					for i := lo; i < hi; i++ {
						if bit(i) {
							wantOut[i] = src[i] * scale
							wantG[i] = g0[i] * scale
						} else {
							wantOut[i] = 0
							wantG[i] = g0[i] * 0
						}
					}

					out := make([]float32, n)
					for i := range out {
						out[i] = -7
					}
					path.scale(out, src, bits, lo, hi, scale)
					sameFloatBits(t, name+"/scale", out, wantOut)

					in := append([]float32(nil), src...)
					path.scale(in, in, bits, lo, hi, scale)
					copy(wantOut[:lo], src[:lo])
					copy(wantOut[hi:], src[hi:])
					sameFloatBits(t, name+"/scale in place", in, wantOut)

					g := append([]float32(nil), g0...)
					path.mul(g, bits, lo, hi, scale)
					sameFloatBits(t, name+"/mul", g, wantG)
				}
			}
		}
	}
}
