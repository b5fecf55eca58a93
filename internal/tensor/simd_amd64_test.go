//go:build amd64

package tensor

// withoutAVX2 runs fn with the assembly kernels switched off, as on a CPU
// without AVX2+FMA. It must not overlap a kernel call on another goroutine.
func withoutAVX2(fn func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	fn()
}
