package blockcache

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ios/internal/schedule"
	"ios/internal/sfcache"
)

// entryFor builds a trivially valid n-op entry: one concurrent stage per
// operator, so validate and Rebind accept it.
func entryFor(n int) *Entry {
	e := &Entry{Ops: n, States: n, Transitions: n}
	for i := 0; i < n; i++ {
		e.Stages = append(e.Stages, Stage{Strategy: schedule.Concurrent, Groups: [][]int{{i}}})
	}
	return e
}

// shardCount mirrors sfcache's shard count: the capacity test sizes its
// cache at as many entries as the core has shards and overfills it tenfold.
const shardCount = 32

// frame builds a cache file the way sfcache lays it out — magic, version,
// count, length-prefixed records (here each entry's wire JSON), CRC-32C —
// with a correct checksum, so a case that lies elsewhere is rejected for
// the lie.
func frame(t *testing.T, version uint32, count uint64, entries ...WireEntry) []byte {
	t.Helper()
	b := binary.LittleEndian.AppendUint32([]byte("IOSF"), version)
	b = binary.LittleEndian.AppendUint64(b, count)
	for _, we := range entries {
		rec, err := json.Marshal(we)
		if err != nil {
			t.Fatal(err)
		}
		b = append(binary.AppendUvarint(b, uint64(len(rec))), rec...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

func key(s string) []byte { return append([]byte{KeyVersion}, s...) }

func TestGetOrBeginMissCommitHit(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	ent, claim, err := c.GetOrBegin(ctx.Done(), key("a"))
	if err != nil || ent != nil || claim == nil {
		t.Fatalf("first GetOrBegin = (%v, %v, %v), want a claim", ent, claim, err)
	}
	want := entryFor(2)
	claim.Commit(want)
	got, claim2, err := c.GetOrBegin(ctx.Done(), key("a"))
	if err != nil || claim2 != nil {
		t.Fatalf("second GetOrBegin = (_, %v, %v), want a hit", claim2, err)
	}
	if got != want {
		t.Fatalf("hit returned %+v, want the committed entry", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.Saved() != 1 {
		t.Fatalf("Saved() = %d, want 1", st.Saved())
	}
}

func TestGetOrBeginKeyIsCopied(t *testing.T) {
	c := NewCache()
	k := key("scratch")
	_, claim, _ := c.GetOrBegin(nil, k)
	claim.Commit(entryFor(1))
	for i := range k {
		k[i] = 0xFF // clobber the caller's buffer
	}
	if _, ok := c.Lookup(key("scratch")); !ok {
		t.Fatal("clobbering the caller's key buffer lost the entry: the cache retained the slice")
	}
}

func TestGetOrBeginCancelledWaiter(t *testing.T) {
	c := NewCache()
	_, claim, _ := c.GetOrBegin(nil, key("slow"))
	defer claim.Abandon()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBegin(ctx.Done(), key("slow"))
		done <- err
	}()
	// The waiter must park on the in-flight claim, then honor its own ctx.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != sfcache.ErrCancelled {
			t.Fatalf("cancelled waiter returned %v, want sfcache.ErrCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter stayed wedged behind the in-flight search")
	}
}

// TestSingleflightCoalesces: concurrent requesters of one missing key get
// exactly one claim; the rest wait and read the single committed value.
func TestSingleflightCoalesces(t *testing.T) {
	c := NewCache()
	const n = 16
	var (
		claims  int64
		hits    int64
		mu      sync.Mutex
		entries = map[*Entry]bool{}
		wg      sync.WaitGroup
		start   = make(chan struct{})
	)
	want := entryFor(3)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ent, claim, err := c.GetOrBegin(nil, key("k"))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if claim != nil {
				claims++
				mu.Unlock()
				time.Sleep(5 * time.Millisecond) // let waiters pile up
				claim.Commit(want)
				mu.Lock()
				return
			}
			hits++
			entries[ent] = true
		}()
	}
	close(start)
	wg.Wait()
	if claims != 1 {
		t.Fatalf("%d goroutines claimed the key, want exactly 1", claims)
	}
	if hits != n-1 {
		t.Fatalf("%d goroutines read the entry, want %d", hits, n-1)
	}
	if len(entries) != 1 || !entries[want] {
		t.Fatalf("readers saw %d distinct entries, want exactly the committed one", len(entries))
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != n-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+coalesced", st, n-1)
	}
}

// TestAbandonUnwedgesWaiters: an abandoned claim (cancelled or panicked
// owner) releases waiters to retry; one becomes the new owner and the key
// stays searchable — a cancelled fill never poisons it.
func TestAbandonUnwedgesWaiters(t *testing.T) {
	c := NewCache()
	_, claim, _ := c.GetOrBegin(nil, key("k"))

	want := entryFor(1)
	got := make(chan *Entry, 1)
	go func() {
		ent, cl2, err := c.GetOrBegin(nil, key("k"))
		if err != nil {
			t.Error(err)
			got <- nil
			return
		}
		if cl2 != nil {
			// This waiter won the retry: it is the new owner.
			cl2.Commit(want)
			ent = want
		}
		got <- ent
	}()
	time.Sleep(10 * time.Millisecond)
	claim.Abandon()
	select {
	case ent := <-got:
		if ent != want {
			t.Fatalf("waiter read %+v after abandon, want the retry's entry", ent)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stayed wedged after the owner abandoned")
	}
	if _, ok := c.Lookup(key("k")); !ok {
		t.Fatal("key not searchable after abandon + retry commit")
	}
}

// TestAbandonOnPanicUnwedges mirrors how core uses the claim: the owner's
// deferred Abandon runs even when the search panics, so a shared cache
// never wedges the fingerprint.
func TestAbandonOnPanicUnwedges(t *testing.T) {
	c := NewCache()
	func() {
		defer func() { recover() }()
		_, claim, _ := c.GetOrBegin(nil, key("p"))
		committed := false
		defer func() {
			if !committed {
				claim.Abandon()
			}
		}()
		panic("backend exploded mid-search")
	}()
	// The key must be claimable again, promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ent, claim, err := c.GetOrBegin(ctx.Done(), key("p"))
	if err != nil || ent != nil || claim == nil {
		t.Fatalf("GetOrBegin after panicked fill = (%v, %v, %v), want a fresh claim", ent, claim, err)
	}
	claim.Commit(entryFor(1))
	if _, ok := c.Lookup(key("p")); !ok {
		t.Fatal("key not searchable after a panicked fill was abandoned")
	}
}

func TestCapacityBoundSheds(t *testing.T) {
	c := NewCacheSize(shardCount)
	for i := 0; i < 10*shardCount; i++ {
		_, claim, _ := c.GetOrBegin(nil, key(fmt.Sprintf("k%d", i)))
		claim.Commit(entryFor(1))
	}
	if n := c.Len(); n > shardCount {
		t.Fatalf("bounded cache holds %d entries, cap %d", n, shardCount)
	}
	if ev := c.Stats().Evicted; ev == 0 {
		t.Fatal("no evictions counted despite overflowing the cap")
	}
	// In-flight claims are never evicted: overflow a cache holding a live claim.
	c2 := NewCacheSize(shardCount)
	_, live, _ := c2.GetOrBegin(nil, key("live"))
	for i := 0; i < 10*shardCount; i++ {
		_, cl, _ := c2.GetOrBegin(nil, key(fmt.Sprintf("x%d", i)))
		cl.Commit(entryFor(1))
	}
	live.Commit(entryFor(2))
	if ent, ok := c2.Lookup(key("live")); !ok || ent.Ops != 2 {
		t.Fatal("in-flight claim was evicted by capacity pressure")
	}
}

func TestEntryValidate(t *testing.T) {
	bad := []*Entry{
		{Ops: 0},
		{Ops: 1, States: -1, Stages: []Stage{{Strategy: schedule.Concurrent, Groups: [][]int{{0}}}}},
		{Ops: 1, Stages: []Stage{{Strategy: schedule.Strategy(99), Groups: [][]int{{0}}}}},
		{Ops: 1, Stages: []Stage{{Strategy: schedule.Concurrent}}},                            // no groups
		{Ops: 1, Stages: []Stage{{Strategy: schedule.Concurrent, Groups: [][]int{{}}}}},       // empty group
		{Ops: 1, Stages: []Stage{{Strategy: schedule.Concurrent, Groups: [][]int{{1}}}}},      // out of range
		{Ops: 2, Stages: []Stage{{Strategy: schedule.Concurrent, Groups: [][]int{{0}, {0}}}}}, // duplicate
		{Ops: 2, Stages: []Stage{{Strategy: schedule.Concurrent, Groups: [][]int{{0}}}}},      // incomplete
		// A hostile operator count is an error before it is an allocation.
		{Ops: math.MaxInt, Stages: []Stage{{Strategy: schedule.Concurrent, Groups: [][]int{{0}}}}},
	}
	for i, e := range bad {
		if err := e.validate(); err == nil {
			t.Errorf("bad entry %d validated: %+v", i, e)
		}
	}
	if err := entryFor(3).validate(); err != nil {
		t.Errorf("good entry rejected: %v", err)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	c := NewCache()
	for i := 1; i <= 5; i++ {
		_, claim, _ := c.GetOrBegin(nil, key(fmt.Sprintf("k%d", i)))
		e := entryFor(i)
		e.Stages[0].Strategy = schedule.Merge
		claim.Commit(e)
	}
	// An in-flight claim must be skipped, not persisted half-done.
	_, pending, _ := c.GetOrBegin(nil, key("pending"))
	defer pending.Abandon()

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := NewCache()
	n, err := c2.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || c2.Len() != 5 {
		t.Fatalf("loaded %d entries (len %d), want 5", n, c2.Len())
	}
	if st := c2.Stats(); st.Loaded != 5 {
		t.Fatalf("Loaded counter = %d, want 5", st.Loaded)
	}
	for i := 1; i <= 5; i++ {
		got, ok := c2.Lookup(key(fmt.Sprintf("k%d", i)))
		if !ok {
			t.Fatalf("entry k%d missing after round trip", i)
		}
		want := entryFor(i)
		want.Stages[0].Strategy = schedule.Merge
		if got.Ops != want.Ops || got.States != want.States || got.Transitions != want.Transitions ||
			len(got.Stages) != len(want.Stages) {
			t.Fatalf("entry k%d mutated in round trip: %+v vs %+v", i, got, want)
		}
		for s := range got.Stages {
			if got.Stages[s].Strategy != want.Stages[s].Strategy ||
				fmt.Sprint(got.Stages[s].Groups) != fmt.Sprint(want.Stages[s].Groups) {
				t.Fatalf("entry k%d stage %d mutated: %+v vs %+v", i, s, got.Stages[s], want.Stages[s])
			}
		}
	}
	if _, ok := c2.Lookup(key("pending")); ok {
		t.Fatal("in-flight claim was persisted")
	}
	// Reloading over a warm cache keeps the resident entries (no overwrite).
	before, _ := c2.Lookup(key("k1"))
	if n, err := c2.Load(bytes.NewReader(buf.Bytes())); err != nil || n != 0 {
		t.Fatalf("reload = (%d, %v), want (0, nil): resident fingerprints win", n, err)
	}
	if after, _ := c2.Lookup(key("k1")); after != before {
		t.Fatal("reload replaced a resident entry")
	}
}

// TestLoadCorruptWholeRejection: any defect anywhere in the file rejects
// the whole file and leaves the cache untouched — never a partial load.
func TestLoadCorruptWholeRejection(t *testing.T) {
	// A valid file to mutate.
	c := NewCache()
	for i := 0; i < 3; i++ {
		_, claim, _ := c.GetOrBegin(nil, key(fmt.Sprintf("k%d", i)))
		claim.Commit(entryFor(2))
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	entries, _ := c.Snapshot(0)
	if want := frame(t, fileVersion, 3, entries...); !bytes.Equal(good, want) {
		t.Fatalf("Save wrote\n%x\nwant the frame\n%x", good, want)
	}

	// mutate frames the three entries after fn has damaged a deep copy.
	mutate := func(fn func([]WireEntry)) []byte {
		t.Helper()
		raw, err := json.Marshal(entries)
		if err != nil {
			t.Fatal(err)
		}
		var es []WireEntry
		if err := json.Unmarshal(raw, &es); err != nil {
			t.Fatal(err)
		}
		fn(es)
		return frame(t, fileVersion, 3, es...)
	}
	type corruption struct {
		name    string
		data    []byte
		wantErr string
	}
	cases := []corruption{
		{"not a cache file", []byte("block schedules ahoy"), "version"},
		{"v1 JSON file", []byte(`{"version":1,"entries":[]}` + "\n"), "version"},
		{"wrong version", frame(t, fileVersion+1, 3, entries...), "version 3, want 2"},
		{"record not JSON", append(frame(t, fileVersion, 1)[:16], 2, '{', '{'), "entry 0:"},
		{"bad base64 key", mutate(func(es []WireEntry) { es[1].Key = "!!!" }), "entry 1: bad key"},
		{"empty key", mutate(func(es []WireEntry) { es[1].Key = "" }), "key encoding version"},
		{"old key version", mutate(func(es []WireEntry) { es[1].Key = base64.RawURLEncoding.EncodeToString([]byte{KeyVersion + 1, 'x'}) }), "key encoding version"},
		{"unknown strategy", mutate(func(es []WireEntry) { es[2].Stages[0].Strategy = "quantum" }), "unknown strategy"},
		{"op out of range", mutate(func(es []WireEntry) { es[0].Stages[0].Groups = [][]int{{7}} }), "entry 0:"},
		{"op twice", mutate(func(es []WireEntry) { es[0].Stages[0].Groups = [][]int{{0}, {0}} }), "entry 0:"},
		{"incomplete", mutate(func(es []WireEntry) { es[0].Stages = es[0].Stages[:1] }), "entry 0:"},
		{"count larger than the entries", frame(t, fileVersion, 4, entries...), "entry 3 of 4"},
		{"count smaller than the entries", frame(t, fileVersion, 2, entries...), "checksum"},
		{"record length past the cap", append(frame(t, fileVersion, 1)[:16], 0x81, 0x80, 0x40), "oversize"},
		{"trailing bytes", append(bytes.Clone(good), '\n'), "after the checksum"},
	}
	for n := 0; n < len(good); n++ {
		cases = append(cases, corruption{fmt.Sprintf("truncated to %d bytes", n), good[:n], ""})
	}
	for i := 0; i < 8*len(good); i++ {
		flipped := bytes.Clone(good)
		flipped[i/8] ^= 1 << (i % 8)
		cases = append(cases, corruption{fmt.Sprintf("bit %d flipped", i), flipped, ""})
	}
	for _, tc := range cases {
		fresh := NewCache()
		if _, err := fresh.Load(bytes.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Load = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
		if fresh.Len() != 0 {
			t.Errorf("%s: corrupt load left %d entries resident, want 0 (all-or-nothing)", tc.name, fresh.Len())
		}
		if fresh.Stats().Loaded != 0 {
			t.Errorf("%s: corrupt load bumped the Loaded counter", tc.name)
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blocks.json")
	c := NewCache()
	_, claim, _ := c.GetOrBegin(nil, key("k"))
	claim.Commit(entryFor(4))
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// No temp litter after a successful rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("save left %d files in the directory, want just the cache", len(entries))
	}
	c2 := NewCache()
	n, err := c2.LoadFile(path)
	if err != nil || n != 1 {
		t.Fatalf("LoadFile = (%d, %v), want (1, nil)", n, err)
	}
	if _, err := c2.LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("LoadFile of a missing path succeeded")
	}
}
