//go:build race

package sfcache_test

// raceEnabled: see race_off_test.go.
const raceEnabled = true
