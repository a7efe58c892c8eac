//go:build race

package ios_test

// raceEnabled: see race_off_test.go.
const raceEnabled = true
