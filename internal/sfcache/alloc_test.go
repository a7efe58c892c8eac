package sfcache_test

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/sfcache"
)

// TestCoreBytesPerEntry is the tripwire of what a completed entry keeps
// resident, the measurement cache being most of what a cold search leaves
// behind (150 k entries for NasNet-A + RandWire). The keys have the length
// mix of the id keys such a search leaves — 85 % of 10–23 bytes, the rest
// up to 47 — and a float64 value each. A shard's flat table holds them in
// a chunk per 256 entries, an arena block per 16 KB of long keys and one
// index: 55.5 bytes an entry and 37 heap objects a shard, where a map of
// cells held 94 bytes and two objects an entry, each one traced by the
// collector.
func TestCoreBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const n = 150_000
	keys := stageLikeKeys(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := filledCore(t, keys)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keys)
	if c.Len() != n {
		t.Fatalf("core holds %d entries, want %d", c.Len(), n)
	}
	perEntry := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	perShard := (float64(after.HeapObjects) - float64(before.HeapObjects)) / sfcache.ShardCount
	t.Logf("%d entries: %.1f B an entry, %.1f heap objects a shard", n, perEntry, perShard)
	if perEntry > 64 {
		t.Errorf("the core keeps %.1f bytes an entry, budget 64: is a completed entry a heap object again?", perEntry)
	}
	if perShard > 64 {
		t.Errorf("the core keeps %.0f heap objects a shard, budget 64: does a completed entry allocate?", perShard)
	}
}

// stageLikeKeys returns n distinct keys with the length mix of the
// measurement cache's id keys: 85 % of 10–23 bytes, the rest 24–47.
func stageLikeKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		size := 10 + i%14
		if i%20 >= 17 {
			size = 24 + i%24
		}
		k := binary.AppendUvarint(make([]byte, 0, size), uint64(i))
		for len(k) < size {
			k = append(k, byte(i*31+len(k)))
		}
		keys[i] = k
	}
	return keys
}

// filledCore returns an unbounded core holding keys[i] → i.
func filledCore(tb testing.TB, keys [][]byte) *sfcache.Core[float64] {
	c := sfcache.NewCore[float64](0)
	for i, k := range keys {
		_, cl, err := c.GetOrBegin(nil, k)
		if err != nil || cl == nil {
			tb.Fatalf("key %d: GetOrBegin = (_, %v, %v), want a claim", i, cl, err)
		}
		cl.Commit(float64(i))
	}
	return c
}

// BenchmarkCoreHit times a hit on a core of 150 k keys of the id keys'
// length mix, from every GOMAXPROCS goroutine at once — what the DP
// search's workers pay per repeated stage: one hash, one lock-free probe
// of the shard's index and one entry read, with no allocation. Each
// goroutine strides over the keys, so successive hits touch cold lines as
// a search's cross-block repeats do.
func BenchmarkCoreHit(b *testing.B) {
	keys := stageLikeKeys(150_000)
	c := filledCore(b, keys)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 7919
		for pb.Next() {
			i = (i + 104_729) % len(keys)
			if v, cl, _ := c.GetOrBegin(nil, keys[i]); cl != nil || v != float64(i) {
				b.Errorf("key %d: read (%v, %v), want a hit on %d", i, v, cl, i)
				return
			}
		}
	})
}

// TestLoadAllocBudget is the regression gate of the cache file's cost,
// per entry because a measurement record is some 28 bytes (a ~20-byte id
// key and the latency): a file of real RandWire stage keys — 101,494 of
// them from searches at batches 1, 2, 4 and 8, since a search measures only
// the stages that can win — loads for little more than what the table keeps
// — the 40-byte entry, its index words and arena bytes, the chunk lists'
// growth — plus the 24-byte staged row and its key string (123 B; 115 on
// the 110,731 entries three batches left while every stage was measured; a
// map of cells read 143, the version-2 file of 300-byte long-form keys 415,
// the JSON body before it 3.9 x its own, larger, file), and saves for the
// cut's row, whose key views the table, plus the key under the file's
// numbering (49 B; a wire entry and its base64 per row read 6 x the JSON
// file).
func TestLoadAllocBudget(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("the race detector changes what allocates; the searches take seconds")
	}
	c := measure.NewCache()
	for _, batch := range []int{1, 2, 4, 8} {
		prof := profile.New(gpusim.TeslaV100)
		prof.SetMeasureCache(c)
		if _, err := core.OptimizeContext(context.Background(), models.RandWire(batch), prof, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() < 100_000 {
		t.Fatalf("fixture has %d entries, want >= 100k", c.Len())
	}
	path := filepath.Join(t.TempDir(), "measure.cache")
	allocated := func(f func() error) float64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	saved := allocated(func() error { return c.SaveFile(path) })
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(c.Len())
	loaded := allocated(func() error { _, err := measure.NewCache().LoadFile(path); return err })
	t.Logf("%d entries, %.1f MB file (%.1f B an entry): SaveFile allocates %.0f B an entry, LoadFile %.0f",
		c.Len(), float64(fi.Size())/1e6, float64(fi.Size())/n, saved/n, loaded/n)
	if fi.Size() > 5_000_000 {
		t.Errorf("the file is %.1f MB, %.0f bytes an entry: are long-form keys written again?", float64(fi.Size())/1e6, float64(fi.Size())/n)
	}
	if saved > 56*n {
		t.Errorf("SaveFile allocates %.0f bytes an entry, budget 56: is a wire entry, or a long-form key, built per row again?", saved/n)
	}
	if loaded > 132*n {
		t.Errorf("LoadFile allocates %.0f bytes an entry, budget 132: is the file, or a second copy of each key, held again?", loaded/n)
	}
}
