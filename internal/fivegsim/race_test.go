//go:build race

package fivegsim

// raceEnabled reports whether the race detector is compiled in; allocation
// ceilings do not hold under it.
const raceEnabled = true
