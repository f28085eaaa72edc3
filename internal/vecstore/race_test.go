//go:build race

package vecstore_test

// raceEnabled reports whether the race detector is compiled in; allocation
// ceilings do not hold under it and the catalog differential is thinned.
const raceEnabled = true
