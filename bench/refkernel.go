// FROZEN. This file is the benchmark's unit of time. Every timed sample is
// rescaled by how long this kernel takes on the same host at the same moment,
// so editing anything here — table size, step counts, the mixing function,
// which parts run or how many goroutines run them — changes what "one tick of
// reference work" means and invalidates every recorded baseline.
// refkernel_test.go pins the checksum so an accidental edit fails loudly.
//
// The kernel has three parts because no single one tracked the host's drift
// (README, "Noise"): a dependent-load walk over a table larger than L2 (memory
// latency), a branchy byte scan (front end and integer units, the part a busy
// sibling hyper-thread slows most), and a token passed round a ring of
// goroutines (scheduler wake-ups). The walk and the scan run on GOMAXPROCS
// goroutines at once, so a tick also feels a busy second core the way the
// parallel search does.

package main

import (
	"runtime"
	"sync"
	"time"
)

const (
	refTableWords = 1 << 19 // 4 MB of uint64
	refWalkSteps  = 160000  // dependent loads per goroutine
	refScanBytes  = 1 << 16
	refScanPasses = 12
	refRingLaps   = 1500
	// refNominal is the tick every sample is rescaled to:
	// normalised = raw × refNominal / tick. It is close to the median tick on
	// the 2-core 2.1 GHz Xeon the benchmark was written on, so normalised and
	// raw seconds read alike there.
	refNominal = 16 * time.Millisecond
)

var (
	refOnce  sync.Once
	refTable []uint64
	refBytes []byte
)

func refInit() {
	refOnce.Do(func() {
		refTable = make([]uint64, refTableWords)
		x := uint64(0x9e3779b97f4a7c15)
		for i := range refTable {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			refTable[i] = x
		}
		refBytes = make([]byte, refScanBytes)
		for i := range refBytes {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			refBytes[i] = byte(x >> 33)
		}
	})
}

// refWalk is an xorshift walk whose next index depends on the word just loaded
// (so loads cannot overlap), with a float accumulate on the side.
func refWalk(worker int) float64 {
	x := uint64(worker)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	acc := 0.0
	for i := 0; i < refWalkSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w := refTable[x&(refTableWords-1)]
		x += w
		acc += float64(w>>40) * 0x1p-24
	}
	return acc
}

// refScan is a data-dependent four-way branch per byte over an L2-resident
// buffer, the shape of a JSON or wire decoder's inner loop.
func refScan(worker int) float64 {
	n, depth := worker, 0
	for p := 0; p < refScanPasses; p++ {
		for _, c := range refBytes {
			switch {
			case c < 40:
				depth++
			case c < 80:
				if depth > 0 {
					depth--
				}
			case c < 160:
				n += depth
			default:
				n ^= int(c)
			}
		}
	}
	return float64(n&0xffffff) + float64(depth&0xffff)
}

// refRing passes a token refRingLaps times round a ring of goroutines joined
// by unbuffered channels: every hop parks one goroutine and wakes the next.
func refRing(size int) int {
	chans := make([]chan int, size)
	for i := range chans {
		chans[i] = make(chan int)
	}
	var wg sync.WaitGroup
	for i := 1; i < size; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := range chans[i] {
				chans[(i+1)%size] <- v + 1
			}
			close(chans[(i+1)%size])
		}(i)
	}
	token := 0
	for lap := 0; lap < refRingLaps; lap++ {
		chans[1] <- token
		token = <-chans[0]
	}
	close(chans[1])
	wg.Wait()
	return token
}

// refTick runs the kernel once and returns its wall time and checksum. The
// checksum depends on GOMAXPROCS only through the ring size, which the test
// accounts for.
func refTick() (time.Duration, float64) {
	refInit()
	n := runtime.GOMAXPROCS(0)
	sums := make([]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums[w] = refWalk(w) + refScan(w)
		}(w)
	}
	wg.Wait()
	ring := n
	if ring < 2 {
		ring = 2
	}
	token := refRing(ring)
	return time.Since(start), sums[0] + float64(token)
}
