package measure

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"ios/internal/gpusim"
	"ios/internal/sfcache"
)

func fillKey(i int) []byte {
	return testKey([]gpusim.Stream{{kernel(float64(1+i)*1e6, 2e6)}})
}

// mustFill commits lat under a long-form key.
func mustFill(t *testing.T, c *Cache, key []byte, lat float64) {
	t.Helper()
	if _, cl, _ := c.GetOrBegin(nil, mustIntern(c, key)); cl != nil {
		cl.Commit(lat)
	}
}

func TestSnapshotIncremental(t *testing.T) {
	c := NewCache()
	mustFill(t, c, fillKey(0), 1e-6)
	mustFill(t, c, fillKey(1), 2e-6)

	full, cut := c.Snapshot(0)
	if len(full) != 2 {
		t.Fatalf("full snapshot has %d entries, want 2", len(full))
	}
	// In-flight (uncommitted) fills are invisible.
	_, pending, _ := c.GetOrBegin(nil, mustIntern(c, fillKey(9)))
	if got, _ := c.Snapshot(0); len(got) != 2 {
		t.Fatalf("snapshot saw an uncommitted fill: %d entries", len(got))
	}
	pending.Abandon()

	if inc, _ := c.Snapshot(cut); len(inc) != 0 {
		t.Fatalf("incremental snapshot at the cut has %d entries, want 0", len(inc))
	}
	mustFill(t, c, fillKey(2), 3e-6)
	inc, cut2 := c.Snapshot(cut)
	if len(inc) != 1 {
		t.Fatalf("incremental snapshot has %d entries, want exactly the new one", len(inc))
	}
	if cut2 <= cut {
		t.Fatalf("cut did not advance: %d -> %d", cut, cut2)
	}
	_, lat, err := inc[0].Decode()
	if err != nil || lat != 3e-6 {
		t.Fatalf("incremental entry decodes to %g (%v), want 3e-6", lat, err)
	}
}

func TestMergeRoundTripAndDedup(t *testing.T) {
	src := NewCache()
	mustFill(t, src, fillKey(0), 1e-6)
	mustFill(t, src, fillKey(1), 2e-6)
	entries, _ := src.Snapshot(0)

	dst := NewCache()
	added, err := dst.Merge(entries)
	if err != nil || added != 2 {
		t.Fatalf("Merge = (%d, %v), want (2, nil)", added, err)
	}
	if lat, ok := dst.Lookup(mustIntern(dst, fillKey(1))); !ok || lat != 2e-6 {
		t.Fatalf("merged lookup = (%g, %v)", lat, ok)
	}
	if added, err := dst.Merge(entries); err != nil || added != 0 {
		t.Fatalf("re-Merge = (%d, %v), want (0, nil)", added, err)
	}
	if st := dst.Stats(); st.Loaded != 2 {
		t.Fatalf("Loaded = %d, want 2", st.Loaded)
	}
}

func TestMergeAllOrNothing(t *testing.T) {
	src := NewCache()
	mustFill(t, src, fillKey(0), 1e-6)
	entries, _ := src.Snapshot(0)
	bad := entries[0]
	bad.Latency = -1
	// A kernel no simulator accepts, in the second stream of a key.
	noBlocks := kernel(1, 1)
	noBlocks.Blocks = 0
	badSig := WireEntry{Key: sfcache.EncodeKey(testKey([]gpusim.Stream{{kernel(1, 1)}, {noBlocks}})), Latency: 1}

	for _, batch := range [][]WireEntry{{entries[0], bad}, {entries[0], badSig}} {
		dst := NewCache()
		if added, err := dst.Merge(batch); err == nil {
			t.Fatalf("Merge accepted %+v (added %d)", batch[1], added)
		}
		if st := dst.Stats(); st.Size != 0 {
			t.Fatalf("rejected Merge still inserted %d entries", st.Size)
		}
		if ctxs, kerns, streams := dictLen(dst); ctxs+kerns+streams != 0 {
			t.Fatalf("rejected Merge grew the dictionary to %d contexts, %d signatures, %d streams", ctxs, kerns, streams)
		}
	}
}

// TestSaveFileDuringActiveFills: checkpointing a cache under live fills
// always yields a loadable, consistent file.
func TestSaveFileDuringActiveFills(t *testing.T) {
	c := NewCache()
	path := filepath.Join(t.TempDir(), "measure.json")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := idKey(c, []gpusim.Stream{{kernel(float64(w*1000+i%200+1), 7)}})
				if _, cl, _ := c.GetOrBegin(nil, k); cl != nil {
					cl.Commit(float64(i%50+1) * 1e-7)
				}
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		if err := c.SaveFile(path); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("save %d: %v", i, err)
		}
		fresh := NewCache()
		if _, err := fresh.LoadFile(path); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("load of save %d: %v", i, fmt.Errorf("%w", err))
		}
	}
	close(stop)
	wg.Wait()
}
