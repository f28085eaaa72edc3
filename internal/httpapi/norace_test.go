//go:build !race

package httpapi

// raceEnabled reports whether the race detector is compiled in; allocation
// ceilings and sync.Pool reuse do not hold under it.
const raceEnabled = false
