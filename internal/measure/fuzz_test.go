package measure

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ios/internal/gpusim"
)

// FuzzLoad attacks the cache-file loader with the measurement codec's
// file: the three dictionary tables, then records of id key and eight
// latency bytes. Whatever the bytes: Load does not panic; a rejected file
// leaves the cache and its dictionary exactly as they were; an accepted
// one saves to a file that loads back as the same entry set. The seed
// corpus (testdata/fuzz/FuzzLoad) is a valid version-4 file of 3 entries
// and the ways of damaging it, its three dictionary tables included, that
// TestLoadCorruptFallsBackCleanly names, plus files of the three earlier
// versions.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache()
		_, cl, _ := c.GetOrBegin(nil, idKey(c, []gpusim.Stream{{kernel(5, 5)}}))
		cl.Commit(1)
		ctxs, kerns, streams := dictLen(c)
		if _, err := c.Load(bytes.NewReader(data)); err != nil {
			if st := c.Stats(); st.Size != 1 || st.Loaded != 0 {
				t.Fatalf("a rejected file (%v) changed the cache: %+v", err, st)
			}
			if nc, nk, ns := dictLen(c); nc != ctxs || nk != kerns || ns != streams {
				t.Fatalf("a rejected file (%v) grew the dictionary to %d contexts, %d signatures, %d streams", err, nc, nk, ns)
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
// panic; a rejected batch leaves the cache and its dictionary exactly as
// they were; an accepted one adds at most one entry per wire entry, and
// its Snapshot(0) merged into a fresh cache snapshots the same. The seed
// corpus (testdata/fuzz/FuzzMerge) is a Figure-2 block search's snapshot
// and the ways of damaging it: a foreign key-version byte, bad base64, a
// NaN (which JSON cannot carry) and a negative latency, a duplicate key,
// and the empty list.
func FuzzMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []WireEntry
		if json.Unmarshal(data, &entries) != nil {
			return
		}
		c := NewCache()
		_, cl, _ := c.GetOrBegin(nil, idKey(c, []gpusim.Stream{{kernel(5, 5)}}))
		cl.Commit(1)
		before, _ := c.Snapshot(0)
		ctxs, kerns, streams := dictLen(c)
		added, err := c.Merge(entries)
		if err != nil {
			if got, _ := c.Snapshot(0); !reflect.DeepEqual(got, before) || c.Stats().Loaded != 0 {
				t.Fatalf("a rejected batch (%v) changed the cache: %+v", err, got)
			}
			if nc, nk, ns := dictLen(c); nc != ctxs || nk != kerns || ns != streams {
				t.Fatalf("a rejected batch (%v) grew the dictionary to %d contexts, %d signatures, %d streams", err, nc, nk, ns)
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
