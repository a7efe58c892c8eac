package sfcache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// The cache-mechanics suite runs once over each of the two value shapes the
// repository instantiates the core with: a float64 (internal/measure) and a
// pointer (internal/blockcache). The codecs below are minimal stand-ins for
// those packages' — a version byte on the key, one rejectable field, and
// the same two file-record shapes: raw key + fixed-width value, and the
// wire entry's JSON.

const testKeyVersion = 7

type numWire struct {
	Key string  `json:"key"`
	N   float64 `json:"n"`
}

func (w numWire) Decode() ([]byte, float64, error) {
	raw, err := DecodeKey(w.Key, testKeyVersion)
	if err != nil {
		return nil, 0, err
	}
	if w.N < 0 {
		return nil, 0, fmt.Errorf("negative value %v", w.N)
	}
	return raw, w.N, nil
}

type box struct{ n int }

type boxWire struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

func (w boxWire) Decode() ([]byte, *box, error) {
	raw, err := DecodeKey(w.Key, testKeyVersion)
	if err != nil {
		return nil, nil, err
	}
	if w.N < 0 {
		return nil, nil, fmt.Errorf("negative value %d", w.N)
	}
	return raw, &box{n: w.N}, nil
}

// fixture is what the suite needs to know about one instantiation.
type fixture[V any, W Wire[V]] struct {
	new func(maxEntries int) *Cache[V, W]
	// val builds the i'th distinct value; same reports whether two values
	// are the same cache content (identity for pointers).
	val  func(i int) V
	same func(a, b V) bool
	// poison returns a copy of a wire entry that Decode must reject.
	poison func(W) W
}

var numFixture = fixture[float64, numWire]{
	new: func(max int) *Cache[float64, numWire] {
		return New(Codec[float64, numWire]{Name: "num", FileVersion: 3,
			Encode: func(k string, v float64) numWire { return numWire{Key: k, N: v} },
			AppendRecord: func(dst []byte, k string, v float64) ([]byte, error) {
				return binary.LittleEndian.AppendUint64(append(dst, k...), uint64(int64(v*2))), nil
			},
			ParseRecord: func(rec []byte) ([]byte, float64, error) {
				if len(rec) < 8 {
					return nil, 0, fmt.Errorf("short record")
				}
				w := numWire{Key: EncodeKey(rec[:len(rec)-8]), N: float64(int64(binary.LittleEndian.Uint64(rec[len(rec)-8:]))) / 2}
				return w.Decode()
			}}, max)
	},
	val:    func(i int) float64 { return float64(i) + 0.5 },
	same:   func(a, b float64) bool { return a == b },
	poison: func(w numWire) numWire { w.N = -1; return w },
}

var boxFixture = fixture[*box, boxWire]{
	new: func(max int) *Cache[*box, boxWire] {
		return New(Codec[*box, boxWire]{Name: "box", FileVersion: 3,
			Encode: func(k string, v *box) boxWire { return boxWire{Key: k, N: v.n} },
			AppendRecord: func(dst []byte, k string, v *box) ([]byte, error) {
				rec, err := json.Marshal(boxWire{Key: EncodeKey(k), N: v.n})
				return append(dst, rec...), err
			},
			ParseRecord: func(rec []byte) ([]byte, *box, error) {
				var w boxWire
				if err := json.Unmarshal(rec, &w); err != nil {
					return nil, nil, err
				}
				return w.Decode()
			}}, max)
	},
	val:    func(i int) *box { return &box{n: i} },
	same:   func(a, b *box) bool { return a == b },
	poison: func(w boxWire) boxWire { w.N = -1; return w },
}

func TestCache(t *testing.T) {
	t.Run("float64", func(t *testing.T) { runSuite(t, numFixture) })
	t.Run("pointer", func(t *testing.T) { runSuite(t, boxFixture) })
}

func key(s string) []byte { return append([]byte{testKeyVersion}, s...) }

// frame builds a cache file around already length-prefixed records:
// header, the records as given, and a correct checksum — so a case that
// lies in the header is rejected for the lie, not for a bad checksum.
func frame(version uint32, count uint64, recs ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(fileMagic), version)
	b = binary.LittleEndian.AppendUint64(b, count)
	for _, r := range recs {
		b = append(b, r...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// fill commits v under k, failing the test if k was already present.
func fill[V any, W Wire[V]](t *testing.T, c *Cache[V, W], k []byte, v V) {
	t.Helper()
	_, cl, err := c.GetOrBegin(nil, k)
	if err != nil || cl == nil {
		t.Fatalf("GetOrBegin(%q) = (_, %v, %v), want a claim", k, cl, err)
	}
	cl.Commit(v)
}

func runSuite[V any, W Wire[V]](t *testing.T, fx fixture[V, W]) {
	t.Run("MissCommitHit", func(t *testing.T) {
		c := fx.new(0)
		_, cl, err := c.GetOrBegin(nil, key("a"))
		if err != nil || cl == nil {
			t.Fatalf("first GetOrBegin = (_, %v, %v), want a claim", cl, err)
		}
		if _, ok := c.Lookup(key("a")); ok {
			t.Fatal("Lookup saw an in-flight claim")
		}
		want := fx.val(1)
		cl.Commit(want)
		got, cl2, err := c.GetOrBegin(nil, key("a"))
		if err != nil || cl2 != nil || !fx.same(got, want) {
			t.Fatalf("second GetOrBegin = (%v, %v, %v), want a hit on the committed value", got, cl2, err)
		}
		st := c.Stats()
		if st.Hits != 1 || st.Misses != 1 || st.Coalesced != 0 || st.Size != 1 || c.Len() != 1 {
			t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
		}
		if st.Saved() != 1 {
			t.Fatalf("Saved() = %d, want 1", st.Saved())
		}
	})

	t.Run("KeyIsCopied", func(t *testing.T) {
		c := fx.new(0)
		k := key("scratch")
		fill(t, c, k, fx.val(1))
		for i := range k {
			k[i] = 0xAA // clobber the caller's buffer
		}
		if _, ok := c.Lookup(key("scratch")); !ok {
			t.Fatal("the cache retained the caller's key slice instead of copying it")
		}
	})

	t.Run("Coalesces", func(t *testing.T) {
		c := fx.new(0)
		const n = 16
		want := fx.val(42)
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			owners int
			got    []V
		)
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				v, cl, err := c.GetOrBegin(nil, key("k"))
				if err != nil {
					t.Error(err)
					return
				}
				if cl != nil {
					mu.Lock()
					owners++
					mu.Unlock()
					time.Sleep(5 * time.Millisecond) // let waiters pile up
					cl.Commit(want)
					return
				}
				mu.Lock()
				got = append(got, v)
				mu.Unlock()
			}()
		}
		close(start)
		wg.Wait()
		if owners != 1 || len(got) != n-1 {
			t.Fatalf("%d owners and %d readers, want 1 and %d", owners, len(got), n-1)
		}
		for _, v := range got {
			if !fx.same(v, want) {
				t.Fatalf("a waiter read %v, want the single committed value", v)
			}
		}
		st := c.Stats()
		if st.Misses != 1 || st.Hits+st.Coalesced != n-1 {
			t.Fatalf("stats = %+v, want 1 miss and %d hits+coalesced", st, n-1)
		}
	})

	t.Run("CancelledWaiter", func(t *testing.T) {
		c := fx.new(0)
		_, owner, _ := c.GetOrBegin(nil, key("slow"))
		done := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			_, _, err := c.GetOrBegin(done, key("slow"))
			errc <- err
		}()
		waitCoalesced(t, c, 1) // the waiter is parked on the in-flight claim
		close(done)
		select {
		case err := <-errc:
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("cancelled waiter returned %v, want ErrCancelled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled waiter stayed wedged behind the in-flight fill")
		}
		// The fill is undisturbed, and an already-closed done is refused
		// before it can claim anything.
		if _, cl, err := c.GetOrBegin(done, key("other")); cl != nil || !errors.Is(err, ErrCancelled) {
			t.Fatalf("GetOrBegin on a closed done = (_, %v, %v), want ErrCancelled", cl, err)
		}
		want := fx.val(3)
		owner.Commit(want)
		if got, ok := c.Lookup(key("slow")); !ok || !fx.same(got, want) {
			t.Fatal("the owner's commit was lost after a waiter cancelled")
		}
	})

	t.Run("AbandonUnwedgesWaiters", func(t *testing.T) {
		c := fx.new(0)
		_, owner, _ := c.GetOrBegin(nil, key("k"))
		want := fx.val(9)
		got := make(chan V, 1)
		go func() {
			v, cl, err := c.GetOrBegin(nil, key("k"))
			if err != nil {
				t.Error(err)
			}
			if cl != nil { // this waiter won the retry: it is the new owner
				cl.Commit(want)
				v = want
			}
			got <- v
		}()
		waitCoalesced(t, c, 1)
		owner.Abandon()
		select {
		case v := <-got:
			if !fx.same(v, want) {
				t.Fatalf("waiter read %v after abandon, want the retry's value", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter stayed wedged after the owner abandoned")
		}
		if v, ok := c.Lookup(key("k")); !ok || !fx.same(v, want) || c.Len() != 1 {
			t.Fatalf("key not computable after abandon + retry commit (len %d)", c.Len())
		}
	})

	t.Run("AbandonOnPanicUnwedges", func(t *testing.T) {
		c := fx.new(0)
		func() {
			defer func() { recover() }()
			_, cl, _ := c.GetOrBegin(nil, key("p"))
			defer cl.Abandon() // how core and profile hold a claim
			panic("backend exploded mid-fill")
		}()
		fill(t, c, key("p"), fx.val(1)) // claimable again, promptly
		if c.Len() != 1 {
			t.Fatalf("Len = %d after a panicked fill and a commit, want 1", c.Len())
		}
	})

	t.Run("CapacitySheds", func(t *testing.T) {
		c := fx.new(shardCount) // one completed entry per shard
		for i := 0; i < 10*shardCount; i++ {
			fill(t, c, key(fmt.Sprintf("k%d", i)), fx.val(i))
		}
		if n := c.Len(); n > shardCount {
			t.Fatalf("bounded cache holds %d entries, cap %d", n, shardCount)
		}
		if st := c.Stats(); st.Evicted == 0 || st.Size != c.Len() {
			t.Fatalf("stats after overflowing the cap = %+v", st)
		}
		// In-flight claims are never evicted, whatever pressure their shard
		// is under.
		c2 := fx.new(shardCount)
		_, live, _ := c2.GetOrBegin(nil, key("live"))
		for i := 0; i < 10*shardCount; i++ {
			fill(t, c2, key(fmt.Sprintf("x%d", i)), fx.val(i))
		}
		want := fx.val(-1)
		live.Commit(want)
		if v, ok := c2.Lookup(key("live")); !ok || !fx.same(v, want) {
			t.Fatal("an in-flight claim was evicted by capacity pressure")
		}
		// Unbounded caches never evict.
		u := fx.new(0)
		for i := 0; i < 10*shardCount; i++ {
			fill(t, u, key(fmt.Sprintf("k%d", i)), fx.val(i))
		}
		if u.Len() != 10*shardCount || u.Stats().Evicted != 0 {
			t.Fatalf("unbounded cache: len=%d evicted=%d", u.Len(), u.Stats().Evicted)
		}
	})

	t.Run("SnapshotIncremental", func(t *testing.T) {
		c := fx.new(0)
		fill(t, c, key("b"), fx.val(2))
		fill(t, c, key("a"), fx.val(1))
		full, cut := c.Snapshot(0)
		if len(full) != 2 {
			t.Fatalf("full snapshot has %d entries, want 2", len(full))
		}
		if ka, _, _ := full[0].Decode(); !bytes.Equal(ka, key("a")) {
			t.Fatalf("snapshot not sorted by fingerprint: first key %q", ka)
		}
		// In-flight (uncommitted) fills are invisible.
		_, pending, _ := c.GetOrBegin(nil, key("pending"))
		if got, _ := c.Snapshot(0); len(got) != 2 {
			t.Fatalf("snapshot saw an uncommitted fill: %d entries", len(got))
		}
		pending.Abandon()
		if inc, _ := c.Snapshot(cut); len(inc) != 0 {
			t.Fatalf("incremental snapshot at the cut has %d entries, want 0", len(inc))
		}
		fill(t, c, key("c"), fx.val(3))
		inc, cut2 := c.Snapshot(cut)
		if len(inc) != 1 || cut2 <= cut {
			t.Fatalf("incremental snapshot = %d entries, cut %d -> %d; want exactly the new entry and an advanced cut", len(inc), cut, cut2)
		}
		if k, _, err := inc[0].Decode(); err != nil || !bytes.Equal(k, key("c")) {
			t.Fatalf("incremental entry decodes to key %q (%v), want the new one", k, err)
		}
	})

	t.Run("MergeDedupAllOrNothing", func(t *testing.T) {
		src := fx.new(0)
		fill(t, src, key("a"), fx.val(1))
		fill(t, src, key("b"), fx.val(2))
		entries, _ := src.Snapshot(0)

		dst := fx.new(0)
		resident := fx.val(10)
		fill(t, dst, key("a"), resident)
		if added, err := dst.Merge(entries); err != nil || added != 1 {
			t.Fatalf("Merge = (%d, %v), want (1, nil): one fingerprint was already resident", added, err)
		}
		if v, _ := dst.Lookup(key("a")); !fx.same(v, resident) {
			t.Fatal("Merge replaced a resident entry")
		}
		if added, err := dst.Merge(entries); err != nil || added != 0 {
			t.Fatalf("re-Merge = (%d, %v), want (0, nil)", added, err)
		}
		if st := dst.Stats(); st.Loaded != 1 || st.Size != 2 {
			t.Fatalf("stats after merges = %+v, want 1 loaded / 2 resident", st)
		}
		// One bad entry anywhere rejects the whole batch.
		fresh := fx.new(0)
		_, err := fresh.Merge([]W{entries[0], fx.poison(entries[1])})
		if err == nil || !strings.Contains(err.Error(), "cache entry 1") {
			t.Fatalf("Merge of a poisoned batch: err = %v, want entry 1 rejected", err)
		}
		if st := fresh.Stats(); st.Size != 0 || st.Loaded != 0 {
			t.Fatalf("rejected Merge still changed the cache: %+v", st)
		}
	})

	t.Run("OwnSkipsPeerEntries", func(t *testing.T) {
		src := fx.new(0)
		fill(t, src, key("p"), fx.val(1))
		fill(t, src, key("f"), fx.val(2))
		pushed, _ := src.Snapshot(0)
		var file bytes.Buffer
		if err := src.Save(&file); err != nil {
			t.Fatal(err)
		}
		c := fx.new(0)
		if _, err := c.Merge(pushed[1:]); err != nil { // key "p"
			t.Fatal(err)
		}
		if _, err := c.MergeFrames(bytes.NewReader(file.Bytes())); err != nil { // "f" new, "p" kept
			t.Fatal(err)
		}
		if own, _ := c.Own(0); len(own) != 0 {
			t.Fatalf("Own exports %d peer entries, want 0", len(own))
		}
		fill(t, c, key("s"), fx.val(3))
		own, cut := c.Own(0)
		if len(own) != 1 {
			t.Fatalf("Own exports %d entries, want the searched one", len(own))
		}
		if k, _, _ := own[0].Decode(); !bytes.Equal(k, key("s")) {
			t.Fatalf("Own exports key %q, want the searched one", k)
		}
		if all, _ := c.Snapshot(0); len(all) != 3 {
			t.Fatalf("Snapshot exports %d entries, want all 3", len(all))
		}
		if again, _ := c.Own(cut); len(again) != 0 {
			t.Fatalf("Own past its own cut exports %d entries, want 0", len(again))
		}
		// A file load is this cache's own: a restart pushes what it loaded.
		restarted := fx.new(0)
		if _, err := restarted.Load(bytes.NewReader(file.Bytes())); err != nil {
			t.Fatal(err)
		}
		if own, _ := restarted.Own(0); len(own) != 2 {
			t.Fatalf("Own after Load exports %d entries, want 2", len(own))
		}
	})

	t.Run("SaveLoad", func(t *testing.T) {
		c := fx.new(0)
		for i := 0; i < 5; i++ {
			fill(t, c, key(fmt.Sprintf("k%d", i)), fx.val(i))
		}
		var a, b bytes.Buffer
		if err := c.Save(&a); err != nil {
			t.Fatal(err)
		}
		dst := fx.new(0)
		if n, err := dst.Load(bytes.NewReader(a.Bytes())); err != nil || n != 5 || dst.Stats().Loaded != 5 {
			t.Fatalf("Load = (%d, %v), loaded %d; want 5", n, err, dst.Stats().Loaded)
		}
		// The file is a pure function of the contents: a cache rebuilt from
		// it, in a different insertion order, saves the same bytes.
		if err := dst.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("Save is not byte-stable across a round trip:\n%x\n%x", a.Bytes(), b.Bytes())
		}
		// Hostile bytes: whatever is wrong with the file, Load rejects it
		// whole and the destination — which already holds an entry — is
		// exactly as it was.
		good := a.Bytes()
		dst = fx.new(0)
		fill(t, dst, key("resident"), fx.val(9))
		reject := func(name string, data []byte, wantErr string) {
			t.Helper()
			_, err := dst.Load(bytes.NewReader(data))
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Errorf("%s: Load = %v, want an error containing %q", name, err, wantErr)
			}
			if st := dst.Stats(); st.Size != 1 || st.Loaded != 0 {
				t.Fatalf("%s: rejected load changed the cache: %+v", name, st)
			}
		}
		for n := 0; n < len(good); n++ {
			reject(fmt.Sprintf("truncated to %d bytes", n), good[:n], "")
		}
		for i := 0; i < 8*len(good); i++ {
			flipped := bytes.Clone(good)
			flipped[i/8] ^= 1 << (i % 8)
			reject(fmt.Sprintf("bit %d flipped", i), flipped, "")
		}
		body := good[:len(good)-4] // the file without its checksum
		recs := body[fileHeaderLen:]
		reject("wrong version", frame(4, 5, recs), "version 4, want 3")
		reject("count larger than the entries", frame(3, 6, recs), "entry 5 of 6")
		reject("count smaller than the entries", frame(3, 4, recs), "checksum")
		reject("hostile count", frame(3, 1<<62, recs), "entry 5 of")
		reject("record length past the cap", frame(3, 1, binary.AppendUvarint(nil, maxRecordLen+1)), "oversize")
		reject("rejected record", frame(3, 6, recs, []byte{8}, make([]byte, 8)), "entry 5:")
		reject("trailing bytes", append(bytes.Clone(good), 0), "after the checksum")
		reject("empty", nil, "header")
		reject("v1 JSON file", []byte(`{"version":1,"entries":[]}`+"\n"), "version")
		if n, err := dst.Load(bytes.NewReader(frame(3, 0))); err != nil || n != 0 {
			t.Errorf("Load of a file of no entries = (%d, %v), want (0, nil)", n, err)
		}
		if _, err := fx.new(0).LoadFile(filepath.Join(t.TempDir(), "missing.json")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("LoadFile of a missing path = %v, want os.ErrNotExist", err)
		}
	})

	// SaveFileDuringActiveFills: checkpointing a cache under live fills
	// always yields a loadable, consistent file. Run with -race.
	t.Run("SaveFileDuringActiveFills", func(t *testing.T) {
		c := fx.new(0)
		path := filepath.Join(t.TempDir(), "cache.json")
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
					// Workers overlap on half the keyspace so fills also
					// coalesce while the saver holds every shard.
					k := key(fmt.Sprintf("k%d", (w%2)*1000+i%200))
					if _, cl, _ := c.GetOrBegin(nil, k); cl != nil {
						cl.Commit(fx.val(i))
					}
				}
			}(w)
		}
		defer func() {
			close(stop)
			wg.Wait()
		}()
		for i := 0; i < 25; i++ {
			if err := c.SaveFile(path); err != nil {
				t.Fatalf("save %d: %v", i, err)
			}
			if _, err := fx.new(0).LoadFile(path); err != nil {
				t.Fatalf("load of save %d: %v", i, err)
			}
		}
	})
}

// TestConcurrentBoundedCore drives a core bounded to four entries a shard
// — so every shard evicts and rebuilds its table over and over — from many
// goroutines at once, over a key space ten times its capacity — a third of
// the keys inline, a third packed in the arena, a third arena blocks of
// their own. Each value is a pure function of its
// key, so every hit, coalesced wait and Lookup must read exactly its own
// key's; the core stays within capacity, no claim outlives the run, and
// the counters add up to the calls made. Run under -race.
func TestConcurrentBoundedCore(t *testing.T) {
	const capacity, keyspace, workers, calls = 4 * shardCount, 40 * shardCount, 8, 3000
	keys := make([][]byte, keyspace)
	for i := range keys {
		keys[i] = key(fmt.Sprintf("k%d%s", i, strings.Repeat("-", i%3*80)))
	}
	val := func(i int) float64 { return float64(i) + 0.25 }
	for _, abandonEvery := range []int{0, 4} {
		t.Run(fmt.Sprintf("abandon=%d", abandonEvery), func(t *testing.T) {
			c := NewCore[float64](capacity)
			var claims, commits, values atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for n := 0; n < calls; n++ {
						i := r.Intn(keyspace)
						if r.Intn(4) == 0 {
							if v, ok := c.Lookup(keys[i]); ok && v != val(i) {
								t.Errorf("Lookup(key %d) = %v, want %v", i, v, val(i))
							}
							continue
						}
						v, cl, err := c.GetOrBegin(nil, keys[i])
						switch {
						case err != nil:
							t.Error(err)
						case cl == nil:
							values.Add(1)
							if v != val(i) {
								t.Errorf("GetOrBegin(key %d) read %v, want %v", i, v, val(i))
							}
						default:
							claims.Add(1)
							runtime.Gosched() // let requesters of the same key pile up
							if abandonEvery > 0 && r.Intn(abandonEvery) == 0 {
								cl.Abandon()
							} else {
								cl.Commit(val(i))
								commits.Add(1)
							}
						}
					}
				}(w)
			}
			wg.Wait()
			st := c.Stats()
			t.Logf("%d claims, %d commits, %d values read; %+v", claims.Load(), commits.Load(), values.Load(), st)
			if st.Misses != claims.Load() {
				t.Errorf("Misses = %d, want the %d claims granted", st.Misses, claims.Load())
			}
			if st.Size != c.Len() || st.Size > capacity || int64(st.Size) != commits.Load()-st.Evicted {
				t.Errorf("Size = %d, Len = %d: want equal, at most %d, and the %d commits less the %d evictions",
					st.Size, c.Len(), capacity, commits.Load(), st.Evicted)
			}
			// A waiter that saw its owner abandon counts a second lookup.
			if got := st.Hits + st.Coalesced; got < values.Load() || (abandonEvery == 0 && got != values.Load()) {
				t.Errorf("Hits + Coalesced = %d for %d values read", got, values.Load())
			}
			for i := range c.shards {
				if n := len(c.shards[i].claims); n != 0 {
					t.Errorf("shard %d holds %d claims after every owner finished", i, n)
				}
			}
			for i, k := range keys { // nothing wedged: every key answers at once
				v, cl, err := c.GetOrBegin(nil, k)
				if err != nil || (cl == nil && v != val(i)) {
					t.Fatalf("key %d after the run: (%v, %v, %v)", i, v, cl, err)
				}
				if cl != nil {
					cl.Abandon()
				}
			}
		})
	}
}

// TestHitTakesNoLock: with every shard mutex held — as a Cut holds them
// while it copies the cache out — a hit and a Lookup on a completed key
// still return.
func TestHitTakesNoLock(t *testing.T) {
	c := NewCore[float64](0)
	keys := make([][]byte, 8*shardCount)
	for i := range keys {
		keys[i] = key(fmt.Sprintf("held-%d%s", i, strings.Repeat("+", i%3*80)))
		_, cl, _ := c.GetOrBegin(nil, keys[i])
		cl.Commit(float64(i))
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
		defer c.shards[i].mu.Unlock()
	}
	done := make(chan error, 1)
	go func() {
		for i, k := range keys {
			if v, cl, err := c.GetOrBegin(nil, k); err != nil || cl != nil || v != float64(i) {
				done <- fmt.Errorf("GetOrBegin(key %d) = (%v, %v, %v)", i, v, cl, err)
				return
			}
			if v, ok := c.Lookup(k); !ok || v != float64(i) {
				done <- fmt.Errorf("Lookup(key %d) = (%v, %v)", i, v, ok)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a hit or a Lookup on a completed key blocked on a held shard mutex")
	}
}

// waitCoalesced blocks until n requesters have parked on in-flight fills.
func waitCoalesced[V any, W Wire[V]](t *testing.T, c *Cache[V, W], n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Coalesced < n; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked on the in-flight fill")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAllocationShape pins what the benchmark's exact allocation metrics
// depend on: a completed float64 entry is 40 pointer-free bytes in a
// chunk, a claim fits 48, a shard fills whole cache lines, a wait channel
// exists only while a second requester is actually parked, a hit
// allocates nothing, and an uncontended miss allocates the claim and its
// key copy.
func TestAllocationShape(t *testing.T) {
	if sz := unsafe.Sizeof(entry[float64]{}); sz > 40 {
		t.Fatalf("entry[float64] is %d bytes, want <= 40", sz)
	}
	if sz := unsafe.Sizeof(Claim[float64]{}); sz > 48 {
		t.Fatalf("Claim[float64] is %d bytes, want <= 48: a miss allocates one", sz)
	}
	if hasPointers(reflect.TypeOf(entry[float64]{})) {
		t.Fatal("entry[float64] holds a pointer: the collector would trace every completed measurement")
	}
	if sz := unsafe.Sizeof(shard[float64]{}); sz%64 != 0 {
		t.Fatalf("shard is %d bytes, want a multiple of the 64-byte cache line", sz)
	}
	c := numFixture.new(0)
	waits := func() (n int) {
		for i := range c.shards {
			c.shards[i].mu.Lock()
			for _, cl := range c.shards[i].claims {
				if cl.wake != nil {
					n++
				}
			}
			c.shards[i].mu.Unlock()
		}
		return n
	}
	_, cl, _ := c.GetOrBegin(nil, key("k"))
	if waits() != 0 {
		t.Fatal("an uncontended claim allocated a wait channel")
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBegin(nil, key("k"))
		errc <- err
	}()
	waitCoalesced(t, c, 1)
	if waits() != 1 {
		t.Fatalf("%d wait channels with one requester parked, want 1", waits())
	}
	cl.Commit(1)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if _, err := c.Merge([]numWire{{Key: EncodeKey(key("m")), N: 2}}); err != nil {
		t.Fatal(err)
	}
	if waits() != 0 {
		t.Fatal("a completed fill or a Merge insert left a wait channel behind")
	}

	// Past the first chunks and the first claim of every shard, so what
	// is counted is the steady state.
	for i := 0; i < 100*shardCount; i++ {
		fill(t, c, key(fmt.Sprintf("warm-%d", i)), 1)
	}
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = key(fmt.Sprintf("alloc-%d-%s", i, strings.Repeat("x", i%40)))
	}
	i := 0
	miss := testing.AllocsPerRun(len(keys)-1, func() {
		_, cl, _ := c.GetOrBegin(nil, keys[i])
		cl.Commit(1)
		i++
	})
	if miss > 2 { // the claim and its key; the table's growth amortizes below one
		t.Fatalf("an uncontended miss allocates %.1f objects, want <= 2", miss)
	}
	if hit := testing.AllocsPerRun(100, func() { c.GetOrBegin(nil, keys[len(keys)-1]) }); hit != 0 {
		t.Fatalf("a hit allocates %.1f objects, want 0", hit)
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// collector traces.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}
