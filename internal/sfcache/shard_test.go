package sfcache_test

import (
	"context"
	"testing"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/sfcache"
)

// checkSpread fails unless every shard is used and none holds twice its
// fair share of the n keys counted into occ.
func checkSpread(t *testing.T, what string, occ [sfcache.ShardCount]int, n int) {
	t.Helper()
	for sh, got := range occ {
		if got == 0 {
			t.Errorf("%s: shard %d is empty", what, sh)
		}
		if got*len(occ) >= 2*n {
			t.Errorf("%s: shard %d holds %d of %d keys, mean %d: max/mean must stay below 2", what, sh, got, n, n/len(occ))
		}
	}
}

// TestShardOfSpreadsStageKeys: the shard hash must spread both forms of a
// stage key — every shard used, none more than twice the mean. The keys
// the DP search hammers the measurement cache with are id keys: some 20
// bytes that share the context id and their leading kernel ids and, within
// one block, differ in a byte or two. The long form of the same keys
// (block-cache keys embed it) is a long constant prefix followed by a few
// float64 bit patterns, most of them differing only in that tail.
func TestShardOfSpreadsStageKeys(t *testing.T) {
	// Every id key a search of NasNet-A's hardest block leaves behind.
	c := measure.NewCache()
	prof := profile.New(gpusim.TeslaV100)
	prof.SetMeasureCache(c)
	b, err := core.HardestBlock(models.NasNetA(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.OptimizeBlockContext(context.Background(), b, prof, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var ids [sfcache.ShardCount]int
	entries, _ := c.Snapshot(0)
	total := 0
	for _, e := range entries {
		long, _, err := e.Decode()
		if err != nil {
			t.Fatal(err)
		}
		key, ok := c.Intern(nil, long) // interned already: this only translates
		if !ok {
			t.Fatal("a resident key does not translate back")
		}
		total += len(key)
		ids[sfcache.ShardOf(key)]++
	}
	if mean := total / len(entries); len(entries) < 10_000 || mean > 32 {
		t.Fatalf("fixture has %d keys of mean %d bytes, want >= 10k id keys of ~20", len(entries), mean)
	}
	checkSpread(t, "id keys", ids, len(entries))

	// A 14-kernel, two-stream stage: a ~300-byte long-form key, like NasNet's.
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
	checkSpread(t, "long-form keys", occ, perShard*sfcache.ShardCount)
}
