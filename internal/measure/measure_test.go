package measure

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ios/internal/gpusim"
)

func testKey(streams []gpusim.Stream) []byte {
	return AppendStreams(Context(gpusim.TeslaV100, 0), streams)
}

// idKey is the key a cache holds the stage under: the long form interned
// into c's dictionary.
func idKey(c *Cache, streams []gpusim.Stream) []byte { return mustIntern(c, testKey(streams)) }

func mustIntern(c *Cache, long []byte) []byte {
	key, ok := c.Intern(nil, long)
	if !ok {
		panic("stage cannot be keyed")
	}
	return key
}

func kernel(flops, bytes float64) gpusim.Kernel {
	return gpusim.Kernel{FLOPs: flops, Bytes: bytes, Blocks: 4, WarpsPerBlock: 8}
}

func TestGetOrBeginMissThenHit(t *testing.T) {
	c := NewCache()
	key := idKey(c, []gpusim.Stream{{kernel(1e6, 2e6)}})
	lat, claim, _ := c.GetOrBegin(nil, key)
	if claim == nil {
		t.Fatalf("first lookup hit an empty cache (lat=%g)", lat)
	}
	claim.Commit(3.5e-6)
	got, claim2, _ := c.GetOrBegin(nil, key)
	if claim2 != nil {
		t.Fatal("second lookup missed")
	}
	if got != 3.5e-6 {
		t.Fatalf("cached latency = %g, want 3.5e-6", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Coalesced != 0 || st.Size != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Saved() != 1 {
		t.Fatalf("Saved() = %d, want 1", st.Saved())
	}
}

func TestGetOrBeginKeyIsCopied(t *testing.T) {
	c := NewCache()
	key := idKey(c, []gpusim.Stream{{kernel(1, 1)}})
	buf := append([]byte(nil), key...)
	_, claim, _ := c.GetOrBegin(nil, buf)
	claim.Commit(1)
	for i := range buf {
		buf[i] = 0xAA // clobber the caller's scratch
	}
	if _, ok := c.Lookup(key); !ok {
		t.Fatal("cache retained the caller's scratch buffer instead of copying the key")
	}
}

// TestSingleflightCoalesces: goroutines racing one fingerprint produce
// exactly one claim; everyone else blocks until Commit and reads the
// published value. Run with -race.
func TestSingleflightCoalesces(t *testing.T) {
	c := NewCache()
	key := idKey(c, []gpusim.Stream{{kernel(7, 7)}})
	const n = 16
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		owners int
		lats   []float64
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			lat, claim, _ := c.GetOrBegin(nil, key)
			if claim != nil {
				mu.Lock()
				owners++
				mu.Unlock()
				lat = 42
				claim.Commit(lat)
			}
			mu.Lock()
			lats = append(lats, lat)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if owners != 1 {
		t.Fatalf("%d goroutines claimed the key, want exactly 1", owners)
	}
	for _, l := range lats {
		if l != 42 {
			t.Fatalf("a waiter read %g, want the committed 42", l)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != n-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+coalesced", st, n-1)
	}
}

// TestCapacityBoundSheds: a bounded cache stays within its capacity by
// shedding completed entries (never in-flight claims) and keeps serving
// correctly — evicted fingerprints just re-measure.
func TestCapacityBoundSheds(t *testing.T) {
	const cap = 64
	// One kernel signature or one stream per key would fill the bounded
	// dictionary (see TestBoundedDictionaryStopsAtCap): key i is a stage of
	// one stream per octal digit of i, as many kernels of one signature as
	// the digit says — up to four of eight streams — instead.
	c := NewCacheSize(cap)
	mk := func(i int) []byte {
		var streams []gpusim.Stream
		for _, d := range strconv.FormatInt(int64(i), 8) {
			s := make(gpusim.Stream, d-'0')
			for k := range s {
				s[k] = kernel(1, 1)
			}
			streams = append(streams, s)
		}
		return testKey(streams)
	}
	for i := 0; i < 10*cap; i++ {
		_, claim, _ := c.GetOrBegin(nil, mustIntern(c, mk(i)))
		if claim == nil {
			t.Fatalf("entry %d unexpectedly present", i)
		}
		claim.Commit(float64(i))
	}
	// Per-shard caps round up, so allow a small margin over the nominal
	// capacity — the point is that 640 inserts did not retain 640 entries.
	if n := c.Len(); n > 2*cap {
		t.Fatalf("bounded cache holds %d entries, cap %d", n, cap)
	}
	if st := c.Stats(); st.Evicted == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	// A shed fingerprint is simply a miss again.
	lat, claim, _ := c.GetOrBegin(nil, mustIntern(c, mk(0)))
	if claim != nil {
		claim.Commit(0)
	} else if lat != 0 {
		t.Fatalf("surviving entry returned wrong latency %g", lat)
	}
	// Unbounded caches never evict.
	u := NewCache()
	for i := 0; i < 10*cap; i++ {
		_, cl, _ := u.GetOrBegin(nil, mustIntern(u, mk(i)))
		cl.Commit(1)
	}
	if u.Len() != 10*cap || u.Stats().Evicted != 0 {
		t.Fatalf("unbounded cache: len=%d evicted=%d", u.Len(), u.Stats().Evicted)
	}
}

// TestAbandonUnwedgesWaiters: a claim released without a result (the
// owner's measurement panicked) must unblock coalesced waiters into a
// retry and leave the fingerprint measurable — not wedge it forever.
func TestAbandonUnwedgesWaiters(t *testing.T) {
	c := NewCache()
	key := idKey(c, []gpusim.Stream{{kernel(3, 3)}})
	_, claim, _ := c.GetOrBegin(nil, key)
	if claim == nil {
		t.Fatal("no claim on an empty cache")
	}
	waited := make(chan float64, 1)
	go func() {
		lat, cl, _ := c.GetOrBegin(nil, key) // blocks on the in-flight claim
		if cl != nil {
			// The abandon made this waiter the new owner: measure.
			lat = 9
			cl.Commit(lat)
		}
		waited <- lat
	}()
	// Give the waiter time to block, then abandon.
	claim.Abandon()
	if lat := <-waited; lat != 9 {
		t.Fatalf("waiter after abandon got %g, want to have re-owned and committed 9", lat)
	}
	if lat, ok := c.Lookup(key); !ok || lat != 9 {
		t.Fatalf("fingerprint not measurable after abandon: lat=%g ok=%v", lat, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after abandon+commit, want 1", c.Len())
	}
}

// TestKeyEncodingUnambiguous: the canonical encoding must separate stream
// structure, kernel order, kernel fields, and measurement context — every
// pair below would be a latency-corrupting collision.
func TestKeyEncodingUnambiguous(t *testing.T) {
	a, b := kernel(1e6, 2e6), kernel(3e6, 4e6)
	cases := []struct {
		name string
		x, y []byte
	}{
		{"grouping", testKey([]gpusim.Stream{{a, b}}), testKey([]gpusim.Stream{{a}, {b}})},
		{"kernel order", testKey([]gpusim.Stream{{a, b}}), testKey([]gpusim.Stream{{b, a}})},
		{"stream order", testKey([]gpusim.Stream{{a}, {b}}), testKey([]gpusim.Stream{{b}, {a}})},
		{"flops", testKey([]gpusim.Stream{{kernel(1, 5)}}), testKey([]gpusim.Stream{{kernel(2, 5)}})},
		{"bytes", testKey([]gpusim.Stream{{kernel(5, 1)}}), testKey([]gpusim.Stream{{kernel(5, 2)}})},
		{"blocks", testKey([]gpusim.Stream{{{FLOPs: 1, Bytes: 1, Blocks: 1, WarpsPerBlock: 8}}}),
			testKey([]gpusim.Stream{{{FLOPs: 1, Bytes: 1, Blocks: 2, WarpsPerBlock: 8}}})},
		{"empty vs none", testKey(nil), testKey([]gpusim.Stream{{}})},
		{"device", AppendStreams(Context(gpusim.TeslaV100, 0), []gpusim.Stream{{a}}),
			AppendStreams(Context(gpusim.TeslaK80, 0), []gpusim.Stream{{a}})},
		{"overhead", AppendStreams(Context(gpusim.TeslaV100, 0), []gpusim.Stream{{a}}),
			AppendStreams(Context(gpusim.TeslaV100, 1e-6), []gpusim.Stream{{a}})},
	}
	for _, tc := range cases {
		if bytes.Equal(tc.x, tc.y) {
			t.Errorf("%s: distinct measurement inputs share one key", tc.name)
		}
	}
	// Kernel name changes must NOT change the key: kernel names carry
	// node names, which are exactly what the structural fingerprint
	// exists to ignore.
	named := a
	named.Name = "cell_7.sep3x3"
	if !bytes.Equal(testKey([]gpusim.Stream{{a}}), testKey([]gpusim.Stream{{named}})) {
		t.Error("kernel name changed the fingerprint")
	}
	// The device name, by contrast, IS part of the context: it is the
	// only handle distinguishing two custom Backends with numerically
	// identical specs sharing one cache.
	spec := gpusim.TeslaV100
	spec.Name = "my-harness"
	if bytes.Equal(Context(gpusim.TeslaV100, 0), Context(spec, 0)) {
		t.Error("distinct device names share one context key")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	c := NewCache()
	keys := [][]byte{
		testKey([]gpusim.Stream{{kernel(1, 2)}}),
		testKey([]gpusim.Stream{{kernel(3, 4)}, {kernel(5, 6)}}),
		testKey(nil),
	}
	for i, k := range keys {
		_, claim, _ := c.GetOrBegin(nil, mustIntern(c, k))
		claim.Commit(float64(i) * 1.5e-6)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewCache()
	added, err := fresh.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if added != len(keys) {
		t.Fatalf("loaded %d entries, want %d", added, len(keys))
	}
	for i, k := range keys {
		lat, ok := fresh.Lookup(mustIntern(fresh, k))
		if !ok || lat != float64(i)*1.5e-6 {
			t.Fatalf("entry %d: lat=%g ok=%v after round trip", i, lat, ok)
		}
	}
	if st := fresh.Stats(); st.Loaded != int64(len(keys)) {
		t.Fatalf("Loaded = %d, want %d", st.Loaded, len(keys))
	}

	// Reloading into a warm cache adds nothing and overwrites nothing.
	if added, err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil || added != 0 {
		t.Fatalf("reload: added=%d err=%v, want 0, nil", added, err)
	}
}

// frame builds a cache file the way sfcache lays it out — magic, version,
// count, the dictionary tables (each a count and its length-prefixed
// records; three from version 4 on), length-prefixed entry records,
// CRC-32C — with a correct checksum, so a case that lies elsewhere is
// rejected for the lie. A nil dict writes no tables at all (the version-2
// layout).
func frame(version uint32, count uint64, dict [][][]byte, recs ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte("IOSF"), version)
	b = binary.LittleEndian.AppendUint64(b, count)
	put := func(recs [][]byte) {
		for _, r := range recs {
			b = append(binary.AppendUvarint(b, uint64(len(r))), r...)
		}
	}
	for _, t := range dict {
		b = binary.AppendUvarint(b, uint64(len(t)))
		put(t)
	}
	put(recs)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// reseal recomputes a frame's checksum after an edit.
func reseal(b []byte) []byte {
	b = b[:len(b)-4]
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// record is one measurement's file record: the id key, then the latency's bits.
func record(key []byte, lat float64) []byte {
	return binary.LittleEndian.AppendUint64(bytes.Clone(key), math.Float64bits(lat))
}

// sig is a kernel signature's dictionary record: its long form.
func sig(k gpusim.Kernel) []byte { return SignatureOf(&k).appendTo(nil) }

// dictLen reports the sizes of a cache's three dictionary tables.
func dictLen(c *Cache) (ctxs, kerns, streams int) {
	cs, ks, ss := c.dict.tables()
	return len(cs), len(ks), ss.len()
}

// TestLoadCorruptFallsBackCleanly: every corruption mode must reject the
// whole file and leave the cache and its dictionary untouched and usable.
func TestLoadCorruptFallsBackCleanly(t *testing.T) {
	good := NewCache()
	stage := []gpusim.Stream{{kernel(9, 9)}}
	_, claim, _ := good.GetOrBegin(nil, idKey(good, stage))
	claim.Commit(2e-6)
	var saved bytes.Buffer
	if err := good.Save(&saved); err != nil {
		t.Fatal(err)
	}
	// One context, two signatures (sorted by long form: 9.0's little-endian
	// bits order before 1.0's), a stream of one kernel of each, and keys
	// over them: context 0, one stream.
	v100 := Context(gpusim.TeslaV100, 0)
	dict := [][][]byte{{v100}, {sig(kernel(9, 9)), sig(kernel(1, 1))}, {{1, 0}, {1, 1}}}
	key, other := []byte{0, 1, 0}, []byte{0, 1, 1}
	one := [][][]byte{{v100}, {sig(kernel(9, 9))}, {{1, 0}}}
	if want := frame(fileVersion, 1, one, record(key, 2e-6)); !bytes.Equal(saved.Bytes(), want) {
		t.Fatalf("Save wrote\n%x\nwant the frame\n%x", saved.Bytes(), want)
	}
	if n, err := NewCache().Load(bytes.NewReader(frame(fileVersion, 2, dict, record(other, 1), record(key, 2)))); err != nil || n != 2 {
		t.Fatalf("the fixture the corruptions start from loads as (%d, %v), want (2, nil)", n, err)
	}

	type corruption struct {
		name    string
		data    []byte
		wantErr string
	}
	k80 := Context(gpusim.TeslaK80, 0)
	foreign := append([]byte{KeyVersion + 1}, v100[1:]...)
	nan, neg, noBlocks := kernel(math.NaN(), 1), kernel(1, -1), kernel(1, 1)
	noBlocks.Blocks = 0
	lying := frame(fileVersion, 0, [][][]byte{{v100}, nil, nil})
	lying[16] = 2 // the context table's count
	lying = reseal(lying)
	cases := []corruption{
		{"not a cache file", []byte("<html>not a cache</html>"), "version"},
		{"v1 JSON file", []byte(`{"version":1,"entries":[{"key":"AQ","latency":1}]}` + "\n"), "version"},
		{"wrong file version", frame(99, 0, dict), "version 99"},
		{"version-2 file", frame(2, 1, nil, record(testKey(stage), 1)), "cache file version 2, want 4"},
		{"version-3 file", frame(3, 1, dict[:2], record([]byte{0, 1, 1, 0}, 1)), "cache file version 3, want 4"},
		{"short record", frame(fileVersion, 1, dict, []byte{0, 1, 2}), "3-byte record"},
		{"empty key", frame(fileVersion, 1, dict, record(nil, 1)), "malformed key"},
		{"long-form key", frame(fileVersion, 1, dict, record(testKey(stage), 1)), "entry 0"},
		{"key with a padded uvarint", frame(fileVersion, 1, dict, record([]byte{0x80, 0, 1, 0}, 1)), "malformed key"},
		{"key cut short", frame(fileVersion, 1, dict, record([]byte{0, 2, 0}, 1)), "malformed key"},
		{"bytes after the key", frame(fileVersion, 1, dict, record([]byte{0, 1, 0, 0}, 1)), "after the last stream"},
		{"context id past the dictionary", frame(fileVersion, 1, dict, record([]byte{1, 1, 0}, 1)), "dictionary"},
		{"stream id past the dictionary", frame(fileVersion, 1, dict, record([]byte{0, 1, 2}, 1)), "dictionary"},
		{"duplicate context", frame(fileVersion, 0, [][][]byte{{v100, v100}, nil, nil}), "table 0 entry 1 of 2: duplicate"},
		{"contexts out of order", frame(fileVersion, 0, [][][]byte{{v100, k80}, nil, nil}), "out of order"},
		{"signatures out of order", frame(fileVersion, 0, [][][]byte{nil, {sig(kernel(1, 1)), sig(kernel(9, 9))}, nil}), "out of order"},
		{"context of a foreign key version", frame(fileVersion, 0, [][][]byte{{foreign}, nil, nil}), "key encoding version"},
		{"context cut short", frame(fileVersion, 0, [][][]byte{{v100[:len(v100)-1]}, nil, nil}), "malformed"},
		{"context with a tail", frame(fileVersion, 0, [][][]byte{{append(bytes.Clone(v100), 0)}, nil, nil}), "malformed context"},
		{"duplicate signature", frame(fileVersion, 0, [][][]byte{nil, {sig(kernel(1, 1)), sig(kernel(1, 1))}, nil}), "table 1 entry 1 of 2: duplicate"},
		{"NaN signature", frame(fileVersion, 0, [][][]byte{nil, {sig(nan)}, nil}), "invalid kernel signature"},
		{"negative signature", frame(fileVersion, 0, [][][]byte{nil, {sig(neg)}, nil}), "negative work"},
		{"signature without blocks", frame(fileVersion, 0, [][][]byte{nil, {sig(noBlocks)}, nil}), "0 blocks"},
		{"signature with a tail", frame(fileVersion, 0, [][][]byte{nil, {append(sig(kernel(1, 1)), 0)}, nil}), "malformed kernel signature"},
		{"stream of a kernel past its table", frame(fileVersion, 0, [][][]byte{nil, {sig(kernel(9, 9))}, {{1, 1}}}), "table 2 entry 0 of 1: stream names a kernel past the kernel table"},
		{"stream of no kernel table", frame(fileVersion, 0, [][][]byte{{v100}, nil, {{1, 0}}}), "stream names a kernel past"},
		{"duplicate stream", frame(fileVersion, 0, [][][]byte{dict[0], dict[1], {{1, 0}, {1, 0}}}), "table 2 entry 1 of 2: duplicate"},
		{"streams out of order", frame(fileVersion, 0, [][][]byte{dict[0], dict[1], {{1, 1}, {1, 0}}}), "table 2 entry 1 of 2: duplicate or out of order"},
		{"stream cut short", frame(fileVersion, 0, [][][]byte{dict[0], dict[1], {{2, 0}}}), "malformed stream"},
		{"stream with a tail", frame(fileVersion, 0, [][][]byte{dict[0], dict[1], {{1, 0, 0}}}), "malformed stream"},
		{"stream with a padded uvarint", frame(fileVersion, 0, [][][]byte{dict[0], dict[1], {{0x81, 0, 0}}}), "malformed stream"},
		{"dictionary count past its cap", append(frame(fileVersion, 0, nil)[:16], 0x81, 0x80, 0x80, 0x08), "table 0: truncated or oversize count"},
		{"dictionary count larger than the table", lying, "table 0 entry 1 of 2"},
		{"negative latency", frame(fileVersion, 2, dict, record(other, 1), record(key, -1)), "entry 1: invalid latency"},
		{"NaN latency", frame(fileVersion, 1, dict, record(key, math.NaN())), "invalid latency"},
		{"infinite latency", frame(fileVersion, 1, dict, record(key, math.Inf(1))), "invalid latency"},
		{"count larger than the entries", frame(fileVersion, 2, dict, record(key, 1)), "entry 1 of 2"},
		{"count smaller than the entries", frame(fileVersion, 1, dict, record(other, 1), record(key, 1)), "checksum"},
		{"record length past the cap", append(frame(fileVersion, 1, [][][]byte{nil, nil, nil})[:19], 0x81, 0x80, 0x40), "oversize"},
		{"trailing bytes", append(bytes.Clone(saved.Bytes()), '\n'), "after the checksum"},
	}
	for n := 0; n < saved.Len(); n++ {
		cases = append(cases, corruption{fmt.Sprintf("truncated to %d bytes", n), saved.Bytes()[:n], ""})
	}
	for i := 0; i < 8*saved.Len(); i++ {
		flipped := bytes.Clone(saved.Bytes())
		flipped[i/8] ^= 1 << (i % 8)
		cases = append(cases, corruption{fmt.Sprintf("bit %d flipped", i), flipped, ""})
	}
	for _, tc := range cases {
		c := NewCache()
		if _, err := c.Load(bytes.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Load = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
		if st := c.Stats(); st.Size != 0 || st.Loaded != 0 {
			t.Errorf("%s: corrupt load left %d entries behind (%d loaded)", tc.name, st.Size, st.Loaded)
		}
		if ctxs, kerns, streams := dictLen(c); ctxs != 0 || kerns != 0 || streams != 0 {
			t.Errorf("%s: corrupt load interned %d contexts, %d signatures and %d streams", tc.name, ctxs, kerns, streams)
		}
		// The cache must remain fully usable after a failed load.
		key := idKey(c, stage)
		_, cl, _ := c.GetOrBegin(nil, key)
		if cl == nil {
			t.Fatalf("%s: cache unusable after failed load", tc.name)
		}
		cl.Commit(1)
		if lat, ok := c.Lookup(key); !ok || lat != 1 {
			t.Errorf("%s: cache broken after failed load", tc.name)
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	c := NewCache()
	stage := []gpusim.Stream{{kernel(11, 12)}}
	_, claim, _ := c.GetOrBegin(nil, idKey(c, stage))
	claim.Commit(4e-6)
	path := t.TempDir() + "/cache.json"
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewCache()
	if n, err := fresh.LoadFile(path); err != nil || n != 1 {
		t.Fatalf("LoadFile: n=%d err=%v", n, err)
	}
	if lat, ok := fresh.Lookup(idKey(fresh, stage)); !ok || lat != 4e-6 {
		t.Fatalf("LoadFile round trip: lat=%g ok=%v", lat, ok)
	}
	if _, err := NewCache().LoadFile(path + ".missing"); err == nil {
		t.Fatal("LoadFile on a missing path succeeded")
	}
}
