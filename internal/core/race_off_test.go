//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in; allocation
// gates skip or keep a per-core bound under -race, whose runtime allocates.
const raceEnabled = false
