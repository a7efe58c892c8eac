package sfcache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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

	"ios/internal/atomicfile"
)

// The cache-mechanics suite runs once over each of the two value shapes the
// repository instantiates the core with: a float64 (internal/measure) and a
// pointer (internal/blockcache). Each shape brings the file-record
// functions a cache composes with the frames — raw key + fixed-width value
// for the float64, JSON for the pointer — with a version byte on the key
// and one rejectable value.

const (
	testKeyVersion  = 7
	testFileVersion = 3
)

type box struct{ n int }

type boxWire struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

// fixture is what the suite needs to know about one instantiation.
type fixture[V any] struct {
	// val builds the i'th distinct value; same reports whether two values
	// are the same cache content (identity for pointers).
	val  func(i int) V
	same func(a, b V) bool
	// bad is a value parseRecord rejects.
	bad V
	// appendRecord and parseRecord are the shape's file record.
	appendRecord func(dst []byte, key string, v V) ([]byte, error)
	parseRecord  func(rec []byte) ([]byte, V, error)
}

var numFixture = fixture[float64]{
	val:  func(i int) float64 { return float64(i) + 0.5 },
	same: func(a, b float64) bool { return a == b },
	bad:  -1,
	appendRecord: func(dst []byte, k string, v float64) ([]byte, error) {
		return binary.LittleEndian.AppendUint64(append(dst, k...), uint64(int64(v*2))), nil
	},
	parseRecord: func(rec []byte) ([]byte, float64, error) {
		if len(rec) < 8 {
			return nil, 0, fmt.Errorf("short record")
		}
		k, v := rec[:len(rec)-8], float64(int64(binary.LittleEndian.Uint64(rec[len(rec)-8:])))/2
		if err := CheckKey(k, testKeyVersion); err != nil {
			return nil, 0, err
		}
		if v < 0 {
			return nil, 0, fmt.Errorf("negative value %v", v)
		}
		return k, v, nil
	},
}

var boxFixture = fixture[*box]{
	val:  func(i int) *box { return &box{n: i} },
	same: func(a, b *box) bool { return a == b },
	bad:  &box{n: -1},
	appendRecord: func(dst []byte, k string, v *box) ([]byte, error) {
		rec, err := json.Marshal(boxWire{Key: EncodeKey(k), N: v.n})
		return append(dst, rec...), err
	},
	parseRecord: func(rec []byte) ([]byte, *box, error) {
		var w boxWire
		if err := json.Unmarshal(rec, &w); err != nil {
			return nil, nil, err
		}
		raw, err := DecodeKey(w.Key, testKeyVersion)
		if err != nil {
			return nil, nil, err
		}
		if w.N < 0 {
			return nil, nil, fmt.Errorf("negative value %d", w.N)
		}
		return raw, &box{n: w.N}, nil
	},
}

// save writes c's completed entries as a cache file, as a cache's Save does.
func (fx fixture[V]) save(c *Core[V], w io.Writer) error {
	rows, _ := c.Cut(0)
	return fx.write(w, rows)
}

func (fx fixture[V]) write(w io.Writer, rows []Row[V]) error {
	return WriteFrames(w, "test", testFileVersion, nil, rows, fx.appendRecord)
}

// load reads a cache file and inserts its rows with insert (InsertRows for
// a cache's own file, InsertPeerRows for a peer's snapshot), as a cache's
// Load and MergeFrames do.
func (fx fixture[V]) load(insert func([]Row[V]) int, data []byte) (int, error) {
	chunks, err := ReadFrames(bytes.NewReader(data), "test", testFileVersion, nil, fx.parseRecord)
	added := 0
	for _, rows := range chunks {
		added += insert(rows)
	}
	return added, err
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
func fill[V any](t *testing.T, c *Core[V], k []byte, v V) {
	t.Helper()
	_, cl, err := c.GetOrBegin(nil, k)
	if err != nil || cl == nil {
		t.Fatalf("GetOrBegin(%q) = (_, %v, %v), want a claim", k, cl, err)
	}
	cl.Commit(v)
}

func runSuite[V any](t *testing.T, fx fixture[V]) {
	t.Run("MissCommitHit", func(t *testing.T) {
		c := NewCore[V](0)
		_, cl, err := c.GetOrBegin(nil, key("a"))
		if err != nil || cl == nil {
			t.Fatalf("first GetOrBegin = (_, %v, %v), want a claim", cl, err)
		}
		if _, ok := c.Lookup(key("a")); ok {
			t.Fatal("Lookup saw an in-flight claim")
		}
		if _, ok := c.Get(key("a")); ok {
			t.Fatal("Get saw an in-flight claim")
		}
		want := fx.val(1)
		cl.Commit(want)
		got, cl2, err := c.GetOrBegin(nil, key("a"))
		if err != nil || cl2 != nil || !fx.same(got, want) {
			t.Fatalf("second GetOrBegin = (%v, %v, %v), want a hit on the committed value", got, cl2, err)
		}
		if got, ok := c.Get(key("a")); !ok || !fx.same(got, want) {
			t.Fatalf("Get = (%v, %v), want a hit on the committed value", got, ok)
		}
		st := c.Stats()
		if st.Hits != 2 || st.Misses != 1 || st.Coalesced != 0 || st.Size != 1 || c.Len() != 1 {
			t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry (Lookup counts nothing, Get a hit, a Get miss nothing)", st)
		}
		if st.Saved() != 2 {
			t.Fatalf("Saved() = %d, want 2", st.Saved())
		}
	})

	t.Run("KeyIsCopied", func(t *testing.T) {
		c := NewCore[V](0)
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
		c := NewCore[V](0)
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
		c := NewCore[V](0)
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
		c := NewCore[V](0)
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
		c := NewCore[V](0)
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
		c := NewCore[V](shardCount) // one completed entry per shard
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
		c2 := NewCore[V](shardCount)
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
		u := NewCore[V](0)
		for i := 0; i < 10*shardCount; i++ {
			fill(t, u, key(fmt.Sprintf("k%d", i)), fx.val(i))
		}
		if u.Len() != 10*shardCount || u.Stats().Evicted != 0 {
			t.Fatalf("unbounded cache: len=%d evicted=%d", u.Len(), u.Stats().Evicted)
		}
	})

	t.Run("SnapshotIncremental", func(t *testing.T) {
		c := NewCore[V](0)
		fill(t, c, key("b"), fx.val(2))
		fill(t, c, key("a"), fx.val(1))
		full, cut := c.Cut(0)
		if len(full) != 2 {
			t.Fatalf("full cut has %d entries, want 2", len(full))
		}
		if full[0].Key != string(key("a")) {
			t.Fatalf("cut not sorted by fingerprint: first key %q", full[0].Key)
		}
		// In-flight (uncommitted) fills are invisible.
		_, pending, _ := c.GetOrBegin(nil, key("pending"))
		if got, _ := c.Cut(0); len(got) != 2 {
			t.Fatalf("cut saw an uncommitted fill: %d entries", len(got))
		}
		pending.Abandon()
		if inc, _ := c.Cut(cut); len(inc) != 0 {
			t.Fatalf("incremental cut at the cut has %d entries, want 0", len(inc))
		}
		fill(t, c, key("c"), fx.val(3))
		inc, cut2 := c.Cut(cut)
		if len(inc) != 1 || cut2 <= cut {
			t.Fatalf("incremental cut = %d entries, cut %d -> %d; want exactly the new entry and an advanced cut", len(inc), cut, cut2)
		}
		if inc[0].Key != string(key("c")) {
			t.Fatalf("incremental entry has key %q, want the new one", inc[0].Key)
		}
	})

	t.Run("MergeDedupAllOrNothing", func(t *testing.T) {
		src := NewCore[V](0)
		fill(t, src, key("a"), fx.val(1))
		fill(t, src, key("b"), fx.val(2))
		rows, _ := src.Cut(0)

		dst := NewCore[V](0)
		resident := fx.val(10)
		fill(t, dst, key("a"), resident)
		if added := dst.InsertPeerRows(rows); added != 1 {
			t.Fatalf("InsertPeerRows = %d, want 1: one fingerprint was already resident", added)
		}
		if v, _ := dst.Lookup(key("a")); !fx.same(v, resident) {
			t.Fatal("InsertPeerRows replaced a resident entry")
		}
		if added := dst.InsertPeerRows(rows); added != 0 {
			t.Fatalf("re-InsertPeerRows = %d, want 0", added)
		}
		if st := dst.Stats(); st.Loaded != 1 || st.Size != 2 {
			t.Fatalf("stats after inserts = %+v, want 1 loaded / 2 resident", st)
		}
		// One bad record anywhere rejects the whole file.
		var file bytes.Buffer
		if err := fx.write(&file, []Row[V]{rows[0], {Key: rows[1].Key, Val: fx.bad}}); err != nil {
			t.Fatal(err)
		}
		fresh := NewCore[V](0)
		_, err := fx.load(fresh.InsertPeerRows, file.Bytes())
		if err == nil || !strings.Contains(err.Error(), "entry 1:") {
			t.Fatalf("load of a poisoned file: err = %v, want entry 1 rejected", err)
		}
		if st := fresh.Stats(); st.Size != 0 || st.Loaded != 0 {
			t.Fatalf("rejected load still changed the cache: %+v", st)
		}
	})

	t.Run("OwnSkipsPeerEntries", func(t *testing.T) {
		src := NewCore[V](0)
		fill(t, src, key("p"), fx.val(1))
		fill(t, src, key("f"), fx.val(2))
		pushed, _ := src.Cut(0)
		var file bytes.Buffer
		if err := fx.save(src, &file); err != nil {
			t.Fatal(err)
		}
		c := NewCore[V](0)
		// A peer pushes key "p", then its snapshot: "f" new, "p" kept.
		c.InsertPeerRows(pushed[1:])
		if _, err := fx.load(c.InsertPeerRows, file.Bytes()); err != nil {
			t.Fatal(err)
		}
		if own, _ := c.CutOwn(0); len(own) != 0 {
			t.Fatalf("CutOwn exports %d peer entries, want 0", len(own))
		}
		fill(t, c, key("s"), fx.val(3))
		own, cut := c.CutOwn(0)
		if len(own) != 1 || own[0].Key != string(key("s")) {
			t.Fatalf("CutOwn exports %v, want the searched entry alone", own)
		}
		if all, _ := c.Cut(0); len(all) != 3 {
			t.Fatalf("Cut exports %d entries, want all 3", len(all))
		}
		if again, _ := c.CutOwn(cut); len(again) != 0 {
			t.Fatalf("CutOwn past its own cut exports %d entries, want 0", len(again))
		}
		// A file load is this cache's own: a restart pushes what it loaded.
		restarted := NewCore[V](0)
		if _, err := fx.load(restarted.InsertRows, file.Bytes()); err != nil {
			t.Fatal(err)
		}
		if own, _ := restarted.CutOwn(0); len(own) != 2 {
			t.Fatalf("CutOwn after a file load exports %d entries, want 2", len(own))
		}
	})

	t.Run("SaveLoad", func(t *testing.T) {
		c := NewCore[V](0)
		for i := 0; i < 5; i++ {
			fill(t, c, key(fmt.Sprintf("k%d", i)), fx.val(i))
		}
		var a, b bytes.Buffer
		if err := fx.save(c, &a); err != nil {
			t.Fatal(err)
		}
		dst := NewCore[V](0)
		if n, err := fx.load(dst.InsertRows, a.Bytes()); err != nil || n != 5 || dst.Stats().Loaded != 5 {
			t.Fatalf("load = (%d, %v), loaded %d; want 5", n, err, dst.Stats().Loaded)
		}
		// The file is a pure function of the contents: a cache rebuilt from
		// it, in a different insertion order, saves the same bytes.
		if err := fx.save(dst, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("the file is not byte-stable across a round trip:\n%x\n%x", a.Bytes(), b.Bytes())
		}
		// Hostile bytes: whatever is wrong with the file, ReadFrames rejects
		// it whole and the destination — which already holds an entry — is
		// exactly as it was.
		good := a.Bytes()
		dst = NewCore[V](0)
		fill(t, dst, key("resident"), fx.val(9))
		reject := func(name string, data []byte, wantErr string) {
			t.Helper()
			_, err := fx.load(dst.InsertRows, data)
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Errorf("%s: load = %v, want an error containing %q", name, err, wantErr)
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
		if n, err := fx.load(dst.InsertRows, frame(3, 0)); err != nil || n != 0 {
			t.Errorf("load of a file of no entries = (%d, %v), want (0, nil)", n, err)
		}
	})

	// SaveFileDuringActiveFills: checkpointing a cache under live fills
	// always yields a loadable, consistent file. Run with -race.
	t.Run("SaveFileDuringActiveFills", func(t *testing.T) {
		c := NewCore[V](0)
		path := filepath.Join(t.TempDir(), "cache")
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
			if err := atomicfile.Write(path, func(w io.Writer) error { return fx.save(c, w) }); err != nil {
				t.Fatalf("save %d: %v", i, err)
			}
			data, err := os.ReadFile(path)
			if err == nil {
				_, err = fx.load(NewCore[V](0).InsertRows, data)
			}
			if err != nil {
				t.Fatalf("load of save %d: %v", i, err)
			}
		}
	})
}

// TestConcurrentBoundedCore drives a core bounded to four times as many
// entries as it has shards — so its shards evict and rebuild their tables
// over and over — from many
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

// TestCapacityCountsTheWholeCore: a core of capacity N sheds nothing while
// it takes N distinct entries, however they fall over the shards, and
// after N+k it holds exactly N, having evicted k — whether the entries
// were committed or loaded through InsertRows.
func TestCapacityCountsTheWholeCore(t *testing.T) {
	const k = 7
	for _, n := range []int{1, 256, 16384} {
		keys := make([][]byte, n+k)
		for i := range keys {
			keys[i] = key(fmt.Sprintf("k%d", i))
		}
		check := func(c *Core[float64], how string, len, evicted int) {
			t.Helper()
			if st := c.Stats(); st.Size != len || c.Len() != len || st.Evicted != int64(evicted) {
				t.Fatalf("capacity %d, %s: Len %d, %+v; want %d entries and %d evicted", n, how, c.Len(), st, len, evicted)
			}
		}
		c := NewCore[float64](n)
		for i, kk := range keys[:n] {
			fill(t, c, kk, float64(i))
		}
		check(c, "N commits", n, 0)
		for i, kk := range keys[n:] {
			fill(t, c, kk, float64(n+i))
		}
		check(c, "N+k commits", n, k)

		rows := make([]Row[float64], len(keys))
		for i, kk := range keys {
			rows[i] = Row[float64]{Key: string(kk), Val: float64(i)}
		}
		c = NewCore[float64](n)
		if added := c.InsertRows(rows[:n]); added != n {
			t.Fatalf("capacity %d: InsertRows added %d of %d", n, added, n)
		}
		check(c, "N inserted rows", n, 0)
		c.InsertRows(rows[n:])
		check(c, "N+k inserted rows", n, k)
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
			if v, ok := c.Get(k); !ok || v != float64(i) {
				done <- fmt.Errorf("Get(key %d) = (%v, %v)", i, v, ok)
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
		t.Fatal("a hit, a Lookup or a Get on a completed key blocked on a held shard mutex")
	}
}

// waitCoalesced blocks until n requesters have parked on in-flight fills.
func waitCoalesced[V any](t *testing.T, c *Core[V], n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Coalesced < n; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked on the in-flight fill")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAllocationShape pins what the benchmark's exact allocation metrics
// depend on: a completed float64 entry is 16 pointer-free bytes in a
// chunk (its key a record in the arena), a claim with its inline key
// buffer fits 64, a shard fills whole cache lines, a wait channel exists
// only while a second requester is actually parked, a hit allocates
// nothing, an uncontended miss on a key of up to inlineMax bytes reuses
// the shard's spare claim and allocates nothing, and a miss on a longer
// key allocates at most a claim and a key buffer
// (TestLongKeyMissAllocatesNothing: none once its shard lends one).
func TestAllocationShape(t *testing.T) {
	if sz := unsafe.Sizeof(entry[float64]{}); sz > 16 {
		t.Fatalf("entry[float64] is %d bytes, want <= 16", sz)
	}
	if sz := unsafe.Sizeof(Claim[float64]{}); sz > 64 {
		t.Fatalf("Claim[float64] is %d bytes, want <= 64: a miss on a long key allocates one", sz)
	}
	if hasPointers(reflect.TypeOf(entry[float64]{})) {
		t.Fatal("entry[float64] holds a pointer: the collector would trace every completed measurement")
	}
	if sz := unsafe.Sizeof(shard[float64]{}); sz%64 != 0 {
		t.Fatalf("shard is %d bytes, want a multiple of the 64-byte cache line", sz)
	}
	c := NewCore[float64](0)
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
	c.InsertPeerRows([]Row[float64]{{Key: string(key("m")), Val: 2}})
	if waits() != 0 {
		t.Fatal("a completed fill or a peer row insert left a wait channel behind")
	}

	// Past the first chunks and the first claim of every shard, so what
	// is counted is the steady state.
	for i := 0; i < 100*shardCount; i++ {
		fill(t, c, key(fmt.Sprintf("warm-%d", i)), 1)
	}
	// The table's growth amortizes below one allocation a miss.
	misses := func(name string, keys [][]byte) float64 {
		i := 0
		return testing.AllocsPerRun(len(keys)-1, func() {
			_, cl, _ := c.GetOrBegin(nil, keys[i])
			if cl == nil {
				t.Fatalf("%s key %d: a hit, want a miss", name, i)
			}
			cl.Commit(1)
			i++
		})
	}
	short := make([][]byte, 4096)
	long := make([][]byte, 4096)
	for i := range short {
		short[i] = key(fmt.Sprintf("s-%d-%s", i, strings.Repeat("x", i%12)))
		long[i] = key(fmt.Sprintf("long-%d-%s", i, strings.Repeat("x", 20+i%40)))
		if len(short[i]) > inlineMax || len(long[i]) <= inlineMax {
			t.Fatalf("key %d: %d and %d bytes, want one inline and one not", i, len(short[i]), len(long[i]))
		}
	}
	if miss := misses("short", short); miss != 0 {
		t.Fatalf("an uncontended miss on a key of up to %d bytes allocates %.1f objects, want 0: is the spare claim reused?", inlineMax, miss)
	}
	if miss := misses("long", long); miss > 2 {
		t.Fatalf("an uncontended miss on a longer key allocates %.1f objects, want <= 2: a claim and a key buffer at most", miss)
	}
	if hit := testing.AllocsPerRun(100, func() { c.GetOrBegin(nil, long[len(long)-1]) }); hit != 0 {
		t.Fatalf("a hit allocates %.1f objects, want 0", hit)
	}
}

// TestLongKeyMissAllocatesNothing: a miss on a key the table copies into
// its arena — over inlineMax bytes and up to bigKey, as a measurement id
// key of a many-kernel stage is — takes the shard's spare claim and holds
// its key in the shard's key buffer, so an uncontended miss and its commit
// allocate nothing once the table's growth is amortized; two such claims
// in flight on one shard each keep their own key.
func TestLongKeyMissAllocatesNothing(t *testing.T) {
	for _, size := range []int{inlineMax + 1, bigKey} {
		c := NewCore[float64](0)
		keys := make([][]byte, 8192)
		for i := range keys {
			k := key(fmt.Sprintf("%d-", i))
			keys[i] = append(k, strings.Repeat("k", size-len(k))...)
		}
		for _, k := range keys[:4096] { // each shard's first claim and key buffer
			fill(t, c, k, 1)
		}
		i := 4096
		miss := testing.AllocsPerRun(len(keys)-i-1, func() {
			_, cl, _ := c.GetOrBegin(nil, keys[i])
			if cl == nil {
				t.Fatalf("%d-byte key %d: a hit, want a miss", size, i)
			}
			cl.Commit(float64(i))
			i++
		})
		if miss != 0 {
			t.Errorf("an uncontended miss and commit on a %d-byte key allocates %.1f objects, want 0: is the shard's spare claim or key buffer not reused?", size, miss)
		}
	}

	c := NewCore[float64](0)
	keys := sameShardKeys(3, bigKey)
	_, a, _ := c.GetOrBegin(nil, keys[0])
	_, b, _ := c.GetOrBegin(nil, keys[1]) // the shard's buffer is a's
	a.Commit(1)
	_, d, _ := c.GetOrBegin(nil, keys[2]) // and now d's
	b.Commit(2)
	d.Commit(3)
	for i, want := range []float64{1, 2, 3} {
		if v, ok := c.Lookup(keys[i]); !ok || v != want {
			t.Errorf("key %d reads (%v, %v), want %v", i, v, ok, want)
		}
	}
}

// TestReplaceOrBegin: a caller that refuses the value a hit returned takes
// the key back while the entry still holds that value — the entry leaves,
// a waiter parks on the new claim and reads what it commits, as do later
// hits and a cut — and otherwise gets what GetOrBegin would: the value that
// replaced the refused one, or a claim on an absent key.
func TestReplaceOrBegin(t *testing.T) {
	c := NewCore[float64](0)
	long := append(key("long-"), strings.Repeat("x", bigKey)...)
	for _, k := range [][]byte{key("k"), long} {
		fill(t, c, k, 1)
		if v, cl, err := c.ReplaceOrBegin(nil, k, 2); err != nil || cl != nil || v != 1 {
			t.Fatalf("refusing a value the entry does not hold: (%v, %v, %v), want a hit on 1", v, cl, err)
		}
		_, cl, err := c.ReplaceOrBegin(nil, k, 1)
		if err != nil || cl == nil {
			t.Fatalf("refusing the entry's value: (_, %v, %v), want a claim", cl, err)
		}
		coalesced := c.Stats().Coalesced
		got := make(chan float64, 1)
		go func() {
			v, _, _ := c.GetOrBegin(nil, k)
			got <- v
		}()
		waitCoalesced(t, c, coalesced+1)
		cl.Commit(3)
		if v := <-got; v != 3 {
			t.Fatalf("the waiter on the replacing claim read %v, want 3", v)
		}
		if v, ok := c.Lookup(k); !ok || v != 3 {
			t.Fatalf("after the replacement the key reads (%v, %v), want 3", v, ok)
		}
	}
	rows, _ := c.Cut(0)
	if len(rows) != 2 || rows[0].Val != 3 || rows[1].Val != 3 {
		t.Fatalf("the cut holds %+v, want the two replacements only", rows)
	}
	if _, cl, _ := c.ReplaceOrBegin(nil, key("absent"), 1); cl == nil {
		t.Fatal("an absent key gave no claim")
	} else {
		cl.Abandon()
	}
	if st := c.Stats(); st.Rejected != 2 || st.Size != 2 || st.Misses != 5 {
		t.Fatalf("stats %+v, want 2 rejected, 2 entries and 5 misses", st)
	}
}

// sameShardKeys returns n distinct keys of size bytes that hash to one shard.
func sameShardKeys(n, size int) [][]byte {
	var keys [][]byte
	for i := 0; len(keys) < n; i++ {
		k := key(fmt.Sprintf("same-%d-", i))
		k = append(k, strings.Repeat("s", max(0, size-len(k)))...)
		if len(keys) == 0 || hashKey(k)>>(64-shardBits) == hashKey(keys[0])>>(64-shardBits) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestParkedClaimIsNeverReused: a waiter reads a claim's state and value
// after the claim finishes, without the shard mutex, so a claim a waiter
// ever parked on must not become the shard's spare — while one no waiter
// saw does, and the next short-key miss of its shard takes it.
func TestParkedClaimIsNeverReused(t *testing.T) {
	c := NewCore[float64](0)
	keys := sameShardKeys(3, 0)
	sh := c.shardFor(hashKey(keys[0]))

	_, quiet, _ := c.GetOrBegin(nil, keys[0])
	quiet.Commit(1)
	if sh.spare != quiet {
		t.Fatal("a claim no waiter saw did not become the shard's spare")
	}
	_, parked, _ := c.GetOrBegin(nil, keys[1])
	if parked != quiet {
		t.Fatal("the next short-key miss of the shard did not take its spare")
	}
	got := make(chan float64, 1)
	go func() {
		v, _, _ := c.GetOrBegin(nil, keys[1])
		got <- v
	}()
	waitCoalesced(t, c, 1)
	parked.Commit(2)
	if v := <-got; v != 2 {
		t.Fatalf("the waiter read %v, want 2", v)
	}
	if sh.spare == parked {
		t.Fatal("a claim a waiter parked on became the shard's spare")
	}
	if _, next, _ := c.GetOrBegin(nil, keys[2]); next == parked {
		t.Fatal("a claim a waiter parked on was handed out again")
	}
}

// TestAbandonedWaitersRetryAfterReuse: the shard's spare is handed out
// while waiters are parked on an abandoned claim of the same shard; they
// retry, one of them fills the key, and every key reads its own value.
func TestAbandonedWaitersRetryAfterReuse(t *testing.T) {
	c := NewCore[float64](0)
	keys := sameShardKeys(3, 0)
	sh := c.shardFor(hashKey(keys[0]))

	_, owner, _ := c.GetOrBegin(nil, keys[0])
	const waiters = 3
	got := make(chan float64, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			v, cl, err := c.GetOrBegin(nil, keys[0])
			if err != nil {
				t.Error(err)
			}
			if cl != nil {
				v = 10
				cl.Commit(v)
			}
			got <- v
		}()
	}
	waitCoalesced(t, c, waiters)
	fill(t, c, keys[1], 11)
	spare := sh.spare
	_, reused, _ := c.GetOrBegin(nil, keys[2])
	if spare == nil || reused != spare {
		t.Fatal("the miss did not reuse the shard's spare claim")
	}
	owner.Abandon()
	sh.mu.Lock() // the waiters are retrying
	spare = sh.spare
	sh.mu.Unlock()
	if spare == owner {
		t.Fatal("an abandoned claim with parked waiters became the shard's spare")
	}
	for i := 0; i < waiters; i++ {
		if v := <-got; v != 10 {
			t.Fatalf("a waiter of the abandoned claim read %v, want 10", v)
		}
	}
	reused.Commit(12)
	for i, want := range []float64{10, 11, 12} {
		if v, ok := c.Lookup(keys[i]); !ok || v != want {
			t.Errorf("key %d reads (%v, %v), want %v", i, v, ok, want)
		}
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
