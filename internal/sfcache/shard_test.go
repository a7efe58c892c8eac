package sfcache_test

import (
	"testing"

	"ios/internal/gpusim"
	"ios/internal/measure"
	"ios/internal/sfcache"
)

// TestShardOfSpreadsStageKeys: the keys the DP search hammers the
// measurement cache with are a long constant prefix (device context, the
// stage's leading kernels) followed by a few float64 bit patterns, and
// within one block most of them differ only in that tail. The shard hash
// must still spread them: every shard used, none more than twice the mean.
func TestShardOfSpreadsStageKeys(t *testing.T) {
	// A 14-kernel, two-stream stage: a ~300-byte key, like NasNet's.
	stage := []gpusim.Stream{make(gpusim.Stream, 7), make(gpusim.Stream, 7)}
	for si, s := range stage {
		for ki := range s {
			s[ki] = gpusim.Kernel{
				FLOPs: 1.8496e7 * float64(1+ki+si), Bytes: 4.1e5 * float64(2+ki),
				Blocks: 84 + 12*ki, WarpsPerBlock: 8,
			}
		}
	}
	prefix := measure.Context(gpusim.TeslaV100, 0)
	last := &stage[1][6]
	const perShard = 64
	var occ [sfcache.ShardCount]int
	for i := 0; i < perShard*sfcache.ShardCount; i++ {
		// Convolution-sized payloads: only the last kernel's two floats move.
		last.FLOPs = 2.359296e6 * float64(1+i%97)
		last.Bytes = 1.6384e4 * float64(1+i/97)
		key := measure.AppendStreams(append([]byte(nil), prefix...), stage)
		if i == 0 && (len(key) < 250 || len(key) > 400) {
			t.Fatalf("fixture key is %d bytes, want a ~300-byte stage key", len(key))
		}
		occ[sfcache.ShardOf(key)]++
	}
	for sh, n := range occ {
		if n == 0 {
			t.Errorf("shard %d is empty", sh)
		}
		if n >= 2*perShard {
			t.Errorf("shard %d holds %d of %d keys, mean %d: max/mean must stay below 2", sh, n, perShard*len(occ), perShard)
		}
	}
}
