//go:build !race

package ios_test

// raceEnabled reports whether the race detector is compiled in; the
// full-NasNet-A test (a minute and a half under the detector, seconds
// without) skips itself when it is — the smaller networks cover the same
// engine paths race-wise.
const raceEnabled = false
