package main

import (
	"runtime"
	"testing"
)

// The kernel is the benchmark's unit of time; these numbers pin it. If this
// test fails, refkernel.go was edited, and every baseline recorded before the
// edit is in a different unit. Do not "fix" the constants to make it pass.
const (
	refWalkChecksum = 79852.88699513674 // worker 0
	refScanChecksum = 8.963873e+06      // worker 0
)

func TestRefKernelIsFrozen(t *testing.T) {
	refInit()
	if got := refWalk(0); got != refWalkChecksum {
		t.Errorf("refWalk(0) = %v, pinned %v", got, refWalkChecksum)
	}
	if got := refScan(0); got != refScanChecksum {
		t.Errorf("refScan(0) = %v, pinned %v", got, refScanChecksum)
	}
	if refTableWords != 1<<19 || refWalkSteps != 160000 || refScanBytes != 1<<16 || refScanPasses != 12 || refRingLaps != 1500 {
		t.Error("a refkernel size constant changed")
	}
	ring := runtime.GOMAXPROCS(0)
	if ring < 2 {
		ring = 2
	}
	d, sum := refTick()
	if want := refWalk(0) + refScan(0) + float64(refRingLaps*(ring-1)); sum != want {
		t.Errorf("refTick checksum = %v, want %v", sum, want)
	}
	if d <= 0 {
		t.Errorf("refTick took %v", d)
	}
}
