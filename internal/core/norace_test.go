//go:build !race

package core_test

// raceEnabled reports whether the race detector is compiled in; the
// concurrent-ask comparison asks fewer questions under it.
const raceEnabled = false
