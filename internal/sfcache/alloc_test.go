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

// TestLoadAllocBudget is the regression gate of the cache file's cost: a
// measurement file of real RandWire stage keys (~300 bytes each) loads
// for little more than the keys the map keeps (1.4 x the file; the JSON
// body read 3.9 x its own, larger, file: the file, its base64 strings,
// their decoded bytes, then the keys) and saves without building anything
// per entry (0.1 x; the JSON body 6 x: a wire entry and its base64 each).
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
	size := float64(fi.Size())
	loaded := allocated(func() error { _, err := measure.NewCache().LoadFile(path); return err })
	t.Logf("%d entries, %.1f MB file: SaveFile allocates %.2f x the file, LoadFile %.2f x", c.Len(), size/1e6, saved/size, loaded/size)
	if saved > 0.6*size {
		t.Errorf("SaveFile allocates %.2f x the file it writes, budget 0.6: is a wire entry built per row again?", saved/size)
	}
	if loaded > 1.8*size {
		t.Errorf("LoadFile allocates %.2f x the file it reads, budget 1.8: is the file, or a copy of each key, held again?", loaded/size)
	}
}
