package blockcache

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzLoad attacks the cache-file loader with the block codec's
// records (each entry's wire JSON). Whatever the bytes: Load
// does not panic; a rejected file leaves the cache exactly as it was; an
// accepted one saves to a file that loads back as the same entry set.
// The seed corpus (testdata/fuzz/FuzzLoad) is a valid 3-entry file and
// the ways of damaging it that TestLoadCorruptWholeRejection names.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache()
		_, cl, _ := c.GetOrBegin(nil, []byte{KeyVersion, 'r'})
		cl.Commit(entryFor(1))
		if _, err := c.Load(bytes.NewReader(data)); err != nil {
			if st := c.Stats(); st.Size != 1 || st.Loaded != 0 {
				t.Fatalf("a rejected file (%v) changed the cache: %+v", err, st)
			}
			return
		}
		var saved bytes.Buffer
		if err := c.Save(&saved); err != nil {
			t.Fatal(err)
		}
		back := NewCache()
		if _, err := back.Load(bytes.NewReader(saved.Bytes())); err != nil {
			t.Fatalf("the re-save of an accepted file is rejected: %v", err)
		}
		want, _ := c.Snapshot(0)
		if got, _ := back.Snapshot(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-saved entry set differs:\n%+v\nwant\n%+v", got, want)
		}
	})
}

// FuzzMerge attacks Merge — the path of peer pushes and of bench/'s cache
// seeding — with a JSON []WireEntry. Whatever the entries: Merge does not
// panic; a rejected batch leaves the cache exactly as it was; an accepted
// one adds at most one entry per wire entry, and its Snapshot(0) merged
// into a fresh cache snapshots the same. The seed corpus
// (testdata/fuzz/FuzzMerge) is a Figure-2 search's snapshot and the ways
// of damaging it: a foreign key-version byte, bad base64, a negative
// operator count, a duplicate key, an unknown strategy, an operator
// scheduled twice, an Ops count its stages do not cover, and the empty
// list.
func FuzzMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []WireEntry
		if json.Unmarshal(data, &entries) != nil {
			return
		}
		c := NewCache()
		_, cl, _ := c.GetOrBegin(nil, []byte{KeyVersion, 'r'})
		cl.Commit(entryFor(1))
		before, _ := c.Snapshot(0)
		added, err := c.Merge(entries)
		if err != nil {
			if got, _ := c.Snapshot(0); !reflect.DeepEqual(got, before) || c.Stats().Loaded != 0 {
				t.Fatalf("a rejected batch (%v) changed the cache: %+v", err, got)
			}
			return
		}
		if added < 0 || added > len(entries) || c.Len() != 1+added {
			t.Fatalf("%d entries merged as %d added, cache of %d", len(entries), added, c.Len())
		}
		want, _ := c.Snapshot(0)
		back := NewCache()
		if _, err := back.Merge(want); err != nil {
			t.Fatalf("the snapshot of an accepted batch is rejected: %v", err)
		}
		if got, _ := back.Snapshot(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-merged snapshot differs:\n%+v\nwant\n%+v", got, want)
		}
	})
}
