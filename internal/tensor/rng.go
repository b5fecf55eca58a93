package tensor

import "math"

// RNG is a small, fast, seedable PRNG (splitmix64 core) used everywhere in
// the repository so experiments are reproducible without math/rand's global
// state. The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// SplitMix64's state increment and its output mix's two multipliers.
const (
	splitmixGamma = 0x9e3779b97f4a7c15
	splitmixMul1  = 0xbf58476d1ce4e5b9
	splitmixMul2  = 0x94d049bb133111eb
)

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// State returns the generator's position in its stream. SetState(State())
// round-trips exactly, so checkpoints can persist and resume an RNG stream
// mid-sequence (splitmix64's entire state is one word).
func (r *RNG) State() uint64 { return r.state }

// SetState repositions the generator; see State.
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += splitmixGamma
	z := r.state
	z = (z ^ (z >> 30)) * splitmixMul1
	z = (z ^ (z >> 27)) * splitmixMul2
	return z ^ (z >> 31)
}

// Skip advances the stream past the next n Uint64 draws without computing
// them: splitmix64's state is a counter, so n discarded draws are one
// multiply-add. Every Float32/Float64/Intn draw consumes exactly one Uint64.
func (r *RNG) Skip(n uint64) { r.state += n * splitmixGamma }

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1): m/2²⁴ for the top 24 bits m
// = u>>40 of the next Uint64 u. Both m and keep·2²⁴ are exact in float32, so
// the draw is below keep exactly when u>>40 < ⌈keep·2²⁴⌉ — the integer
// compare KeepBits draws dropout masks with, over the same stream.
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u <= 1e-300 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split returns a new independent generator derived from r; useful for
// handing one stream to each of m parallel workers deterministically.
func (r *RNG) Split() *RNG { return &RNG{state: r.Uint64()} }

// XavierInit fills m with Glorot-uniform values scaled for fanIn→fanOut.
func XavierInit(m *Matrix, fanIn, fanOut int, rng *RNG) {
	bound := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * bound
	}
}

// GaussianInit fills m with N(0, std²) values.
func GaussianInit(m *Matrix, std float64, rng *RNG) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
}
