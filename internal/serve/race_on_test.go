//go:build race

package serve

// raceEnabled: see race_off_test.go.
const raceEnabled = true
