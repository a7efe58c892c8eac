package sfcache_test

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
)

// TestLoadAllocBudget is the regression gate of the cache file's cost,
// per entry because a measurement record is some 28 bytes (a ~20-byte id
// key and the latency): a file of real RandWire stage keys loads for
// little more than what the map keeps — the key, its cell, the map's slot
// and growth, and the 24-byte staged row (143 B; the version-2 file of
// 300-byte long-form keys read 415, the JSON body before it 3.9 x its
// own, larger, file) — and saves for the cut's row plus the key under the
// file's numbering (47 B; a wire entry and its base64 per row read 6 x
// the JSON file).
func TestLoadAllocBudget(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("the race detector changes what allocates; the searches take seconds")
	}
	c := measure.NewCache()
	for _, batch := range []int{1, 2, 4} {
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
	if loaded > 160*n {
		t.Errorf("LoadFile allocates %.0f bytes an entry, budget 160: is the file, or a second copy of each key, held again?", loaded/n)
	}
}
