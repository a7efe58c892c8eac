package blockcache

import (
	"testing"
)

func TestFetchHookHitCommitsRemotely(t *testing.T) {
	c := NewCache()
	want := entryFor(2)
	var gotKey []byte
	c.SetFetch(func(k []byte) (*Entry, bool) {
		gotKey = append([]byte(nil), k...)
		return want, true
	})
	got, cl, err := c.GetOrBegin(nil, key("r"))
	if err != nil || cl != nil || got != want {
		t.Fatalf("GetOrBegin with fetch hit = (%v, %v, %v), want the fetched entry", got, cl, err)
	}
	if string(gotKey) != string(key("r")) {
		t.Fatalf("hook saw key %q", gotKey)
	}
	st := c.Stats()
	if st.Remote != 1 || st.Misses != 0 || st.Size != 1 {
		t.Fatalf("stats after remote hit = %+v", st)
	}
	// Now a plain local hit; the hook must not run again.
	c.SetFetch(func(k []byte) (*Entry, bool) {
		t.Error("fetch hook ran on a local hit")
		return nil, false
	})
	if got2, cl2, _ := c.GetOrBegin(nil, key("r")); cl2 != nil || got2 != want {
		t.Fatalf("second lookup = (%v, %v)", got2, cl2)
	}
}

func TestFetchHookMissFallsThrough(t *testing.T) {
	c := NewCache()
	c.SetFetch(func(k []byte) (*Entry, bool) { return nil, false })
	got, cl, err := c.GetOrBegin(nil, key("m"))
	if err != nil || cl == nil || got != nil {
		t.Fatalf("GetOrBegin with fetch miss = (%v, %v, %v), want a claim", got, cl, err)
	}
	cl.Commit(entryFor(1))
	st := c.Stats()
	if st.Misses != 1 || st.Remote != 0 {
		t.Fatalf("stats after fetch miss = %+v", st)
	}
}

// TestFetchHookPanicAbandons: a panicking hook must not wedge the
// singleflight — the claim is abandoned and the next caller gets a fresh
// one.
func TestFetchHookPanicAbandons(t *testing.T) {
	c := NewCache()
	c.SetFetch(func(k []byte) (*Entry, bool) { panic("boom") })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		c.GetOrBegin(nil, key("p"))
	}()
	c.SetFetch(nil)
	got, cl, err := c.GetOrBegin(nil, key("p"))
	if err != nil || cl == nil || got != nil {
		t.Fatalf("GetOrBegin after hook panic = (%v, %v, %v), want a fresh claim", got, cl, err)
	}
	cl.Commit(entryFor(1))
}
