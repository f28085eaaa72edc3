//go:build !race

package ingest

// raceEnabled reports whether the race detector is compiled in; allocation
// ceilings do not hold under it.
const raceEnabled = false
