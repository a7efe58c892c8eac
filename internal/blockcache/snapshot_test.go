package blockcache

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"ios/internal/sfcache"
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

// TestOwnSkipsPeerEntries: a cluster node pushes Own, so Own must leave
// out what a peer sent — by Merge (a push) or MergeFrames (a join
// snapshot) — and keep what this cache searched or loaded from its own
// file, which a restarted node pushes.
func TestOwnSkipsPeerEntries(t *testing.T) {
	peer := NewCache()
	fill(t, peer, "pushed", 1)
	fill(t, peer, "snap", 2)
	pushed, _ := peer.Snapshot(0)
	var file bytes.Buffer
	if err := peer.Save(&file); err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	if _, err := c.Merge(pushed[:1]); err != nil { // "pushed"
		t.Fatal(err)
	}
	if _, err := c.MergeFrames(bytes.NewReader(file.Bytes())); err != nil { // "snap" new
		t.Fatal(err)
	}
	if own, _ := c.Own(0); len(own) != 0 {
		t.Fatalf("Own exports %d peer entries, want 0", len(own))
	}
	fill(t, c, "searched", 3)
	own, _ := c.Own(0)
	if len(own) != 1 || own[0].Key != sfcache.EncodeKey(key("searched")) {
		t.Fatalf("Own exports %v, want the searched entry alone", own)
	}
	if all, _ := c.Snapshot(0); len(all) != 3 {
		t.Fatalf("Snapshot exports %d entries, want all 3", len(all))
	}

	restarted := NewCache()
	if _, err := restarted.Load(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	if own, _ := restarted.Own(0); len(own) != 2 {
		t.Fatalf("Own after Load exports %d entries, want both", len(own))
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
