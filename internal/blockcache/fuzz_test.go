package blockcache

import (
	"bytes"
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
