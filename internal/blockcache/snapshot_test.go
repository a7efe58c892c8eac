package blockcache

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func fill(t *testing.T, c *Cache, name string, ops int) {
	t.Helper()
	_, cl, err := c.GetOrBegin(nil, key(name))
	if err != nil || cl == nil {
		t.Fatalf("fill %q: (_, %v, %v), want a claim", name, cl, err)
	}
	cl.Commit(entryFor(ops))
}

func TestSnapshotIncremental(t *testing.T) {
	c := NewCache()
	fill(t, c, "a", 1)
	fill(t, c, "b", 2)

	first, cut := c.Snapshot(0)
	if len(first) != 2 {
		t.Fatalf("full snapshot has %d entries, want 2", len(first))
	}
	// Unfinished fills are invisible.
	_, pending, _ := c.GetOrBegin(nil, key("pending"))
	if got, _ := c.Snapshot(0); len(got) != 2 {
		t.Fatalf("snapshot saw an uncommitted fill: %d entries", len(got))
	}
	pending.Abandon()

	// Nothing new since the cut.
	if inc, _ := c.Snapshot(cut); len(inc) != 0 {
		t.Fatalf("incremental snapshot at the cut has %d entries, want 0", len(inc))
	}
	fill(t, c, "c", 3)
	inc, cut2 := c.Snapshot(cut)
	if len(inc) != 1 {
		t.Fatalf("incremental snapshot has %d entries, want exactly the new one", len(inc))
	}
	if cut2 <= cut {
		t.Fatalf("cut did not advance: %d -> %d", cut, cut2)
	}
	raw, _, err := inc[0].Decode()
	if err != nil || string(raw) != string(key("c")) {
		t.Fatalf("incremental entry decodes to %q (%v), want key c", raw, err)
	}
}

func TestMergeRoundTripAndDedup(t *testing.T) {
	src := NewCache()
	fill(t, src, "x", 2)
	fill(t, src, "y", 3)
	entries, _ := src.Snapshot(0)

	dst := NewCache()
	added, err := dst.Merge(entries)
	if err != nil || added != 2 {
		t.Fatalf("Merge = (%d, %v), want (2, nil)", added, err)
	}
	got, cl, err := dst.GetOrBegin(nil, key("y"))
	if err != nil || cl != nil || got == nil || got.Ops != 3 {
		t.Fatalf("merged entry lookup = (%v, %v, %v)", got, cl, err)
	}
	// Re-merging the same batch adds nothing.
	if added, err := dst.Merge(entries); err != nil || added != 0 {
		t.Fatalf("re-Merge = (%d, %v), want (0, nil)", added, err)
	}
	if st := dst.Stats(); st.Loaded != 2 {
		t.Fatalf("Loaded = %d, want 2", st.Loaded)
	}
}

func TestMergeAllOrNothing(t *testing.T) {
	src := NewCache()
	fill(t, src, "good", 1)
	entries, _ := src.Snapshot(0)
	bad := entries[0]
	bad.Ops = -1 // fails Entry.validate
	batch := []WireEntry{entries[0], bad}

	dst := NewCache()
	if added, err := dst.Merge(batch); err == nil {
		t.Fatalf("Merge accepted a corrupt entry (added %d)", added)
	}
	if st := dst.Stats(); st.Size != 0 {
		t.Fatalf("rejected Merge still inserted %d entries", st.Size)
	}
}

func TestExportSubset(t *testing.T) {
	c := NewCache()
	fill(t, c, "a", 1)
	fill(t, c, "b", 2)
	out := c.Export([][]byte{key("b"), key("missing")})
	if len(out) != 1 {
		t.Fatalf("Export returned %d entries, want 1", len(out))
	}
	raw, _, err := out[0].Decode()
	if err != nil || string(raw) != string(key("b")) {
		t.Fatalf("exported %q (%v), want key b", raw, err)
	}
}

// TestSaveFileDuringActiveFills is the crash-consistency story behind
// periodic checkpointing: SaveFile racing live fills must always produce
// a loadable, internally consistent file — whatever subset of fills it
// catches.
func TestSaveFileDuringActiveFills(t *testing.T) {
	c := NewCache()
	path := filepath.Join(t.TempDir(), "blocks.json")
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
				k := key(fmt.Sprintf("w%d-%d", w, i%200))
				_, cl, err := c.GetOrBegin(nil, k)
				if err != nil {
					return
				}
				if cl != nil {
					cl.Commit(entryFor(1 + i%3))
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
			t.Fatalf("load of save %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
