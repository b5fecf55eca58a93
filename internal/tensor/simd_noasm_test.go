//go:build !amd64

package tensor

// withoutAVX2 runs fn; without amd64 the assembly kernels never run.
func withoutAVX2(fn func()) { fn() }
