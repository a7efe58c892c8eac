//go:build !race

package serve

// raceEnabled reports whether the race detector is compiled in: tests of
// allocation volume, and the one minute-long search, skip themselves under
// it.
const raceEnabled = false
