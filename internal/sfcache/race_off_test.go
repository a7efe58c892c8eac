//go:build !race

package sfcache_test

// raceEnabled reports whether the race detector is compiled in: tests of
// allocation volume skip themselves under it.
const raceEnabled = false
