package measure

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sync"
	"testing"
	"time"

	"ios/internal/gpusim"
	"ios/internal/sfcache"
)

// stageSet is a small workload with structure to share: stages over five
// signatures on two devices, some of them prefixes of others.
func stageSet() (longs [][]byte, lats []float64) {
	ks := []gpusim.Kernel{kernel(1e6, 2e6), kernel(3e6, 4e6), kernel(5, 6), kernel(7e3, 8e3), kernel(9, 1)}
	for _, ctx := range [][]byte{Context(gpusim.TeslaV100, 0), Context(gpusim.TeslaK80, 0), Context(gpusim.TeslaV100, 1e-6)} {
		for i := range ks {
			for j := range ks {
				longs = append(longs,
					AppendStreams(bytes.Clone(ctx), []gpusim.Stream{{ks[i], ks[j]}}),
					AppendStreams(bytes.Clone(ctx), []gpusim.Stream{{ks[i]}, {ks[j], ks[i]}}))
			}
		}
		longs = append(longs, AppendStreams(bytes.Clone(ctx), nil))
	}
	for i := range longs {
		lats = append(lats, float64(i+1)*1e-7)
	}
	return longs, lats
}

// TestFileIsAFunctionOfContents: two caches given the same measurements in
// opposite orders number their dictionaries differently (so their resident
// keys differ), yet Snapshot(0) is equal and Save byte-identical — and a
// file loads back to the same contents.
func TestFileIsAFunctionOfContents(t *testing.T) {
	longs, lats := stageSet()
	fwd, rev := NewCache(), NewCache()
	for i := range longs {
		mustFill(t, fwd, longs[i], lats[i])
		j := len(longs) - 1 - i
		mustFill(t, rev, longs[j], lats[j])
	}
	if a, b := mustIntern(fwd, longs[0]), mustIntern(rev, longs[0]); bytes.Equal(a, b) {
		t.Fatalf("fixture too tame: both caches key the first stage as %x", a)
	}
	want, _ := fwd.Snapshot(0)
	if got, _ := rev.Snapshot(0); len(got) != len(longs) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot(0) depends on fill order:\n%+v\nvs\n%+v", got, want)
	}
	var a, b bytes.Buffer
	if err := fwd.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := rev.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("Save depends on fill order:\n%x\nvs\n%x", a.Bytes(), b.Bytes())
	}
	back := NewCache()
	if n, err := back.Load(bytes.NewReader(a.Bytes())); err != nil || n != len(longs) {
		t.Fatalf("Load = (%d, %v), want (%d, nil)", n, err, len(longs))
	}
	if got, _ := back.Snapshot(0); !reflect.DeepEqual(got, want) {
		t.Fatal("a loaded file's Snapshot(0) differs from the saved cache's")
	}
	// A restart adopts the file's numbering: saving again moves nothing.
	var c bytes.Buffer
	if err := back.Save(&c); err != nil || !bytes.Equal(c.Bytes(), a.Bytes()) {
		t.Fatalf("re-save of a loaded file differs (%v)", err)
	}
}

// TestLoadRemapsIntoWarmDictionary: loading into a cache whose dictionary
// already numbers other signatures (and some of the file's, differently)
// translates every id; the result is the union, and what was resident wins
// where both hold a key.
func TestLoadRemapsIntoWarmDictionary(t *testing.T) {
	longs, lats := stageSet()
	src := NewCache()
	for i := range longs {
		mustFill(t, src, longs[i], lats[i])
	}
	var file bytes.Buffer
	if err := src.Save(&file); err != nil {
		t.Fatal(err)
	}

	dst := NewCache()
	own := [][]byte{
		testKey([]gpusim.Stream{{kernel(123, 456)}}),             // a signature the file lacks
		AppendStreams(Context(gpusim.TeslaK80, 2e-6), nil),       // a context the file lacks
		testKey([]gpusim.Stream{{kernel(9, 1)}, {kernel(5, 6)}}), // the file's signatures, numbered in another order
		longs[len(longs)-1], // a key the file holds too
		AppendStreams(Context(gpusim.TeslaK80, 0), []gpusim.Stream{{kernel(123, 456)}}),
	}
	for i, long := range own {
		mustFill(t, dst, long, float64(i+1))
	}
	n, err := dst.Load(bytes.NewReader(file.Bytes()))
	if err != nil || n != len(longs)-1 {
		t.Fatalf("Load = (%d, %v), want (%d, nil): every entry but the one already resident", n, err, len(longs)-1)
	}
	union := NewCache()
	for i, long := range own {
		mustFill(t, union, long, float64(i+1))
	}
	for i := range longs {
		mustFill(t, union, longs[i], lats[i]) // a no-op for the shared key
	}
	want, _ := union.Snapshot(0)
	if got, _ := dst.Snapshot(0); len(got) != len(longs)+len(own)-1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot(0) after a remapped load is not the union: %d entries, want %d", len(got), len(want))
	}
	for i := range longs[:len(longs)-1] {
		if lat, ok := dst.Lookup(mustIntern(dst, longs[i])); !ok || lat != lats[i] {
			t.Fatalf("loaded entry %d reads (%v, %v), want %v", i, lat, ok, lats[i])
		}
	}
	// Merge of the long form takes the same path.
	merged := NewCache()
	mustFill(t, merged, own[2], 3)
	ents, _ := src.Snapshot(0)
	if n, err := merged.Merge(ents); err != nil || n != len(longs) {
		t.Fatalf("Merge = (%d, %v), want (%d, nil)", n, err, len(longs))
	}
	for i := range longs {
		if lat, ok := merged.Lookup(mustIntern(merged, longs[i])); !ok || lat != lats[i] {
			t.Fatalf("merged entry %d reads (%v, %v), want %v", i, lat, ok, lats[i])
		}
	}

	// Contexts and signatures numbered as in the file, streams not: the
	// file's empty stream sorts first, the cache meets it last.
	k0, k1 := kernel(9, 9), kernel(1, 1) // in the order their long forms sort
	first, second := NewCache(), NewCache()
	mustFill(t, first, testKey([]gpusim.Stream{{k0}}), 1)
	mustFill(t, first, testKey([]gpusim.Stream{{k1}}), 2)
	again := [][]byte{testKey([]gpusim.Stream{{}}), testKey([]gpusim.Stream{{k0}}), testKey([]gpusim.Stream{{k1}, {k0}})}
	for i, long := range again {
		mustFill(t, second, long, float64(10+i))
	}
	var a, b bytes.Buffer
	if err := first.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := second.Save(&b); err != nil {
		t.Fatal(err)
	}
	warm := NewCache()
	for _, f := range []bytes.Buffer{a, b} {
		if _, err := warm.Load(bytes.NewReader(f.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []float64{10, 1, 12} { // the stage both files hold keeps the first's
		if lat, ok := warm.Lookup(mustIntern(warm, again[i])); !ok || lat != want {
			t.Fatalf("entry %d of a file whose streams the cache numbers otherwise reads (%v, %v), want %v", i, lat, ok, want)
		}
	}
}

// TestBoundedDictionaryStopsAtCap: NewCacheSize(n) bounds each dictionary
// table by n — endless novel shapes stop being interned, a key that needs
// one cannot be built, and what was interned keeps working. Files and
// merges that bring more signatures than there is room for lose the
// entries that need them, nothing else.
func TestBoundedDictionaryStopsAtCap(t *testing.T) {
	const room = 8
	c := NewCacheSize(room)
	var kept, refused int
	for i := 0; i < 10*room; i++ {
		k := kernel(float64(i+1), 1)
		if _, ok := c.KernelID(SignatureOf(&k)); ok {
			kept++
		} else {
			refused++
		}
	}
	if ctxs, kerns, _ := dictLen(c); kept != room || refused != 9*room || kerns != room || ctxs != 0 {
		t.Fatalf("dictionary with room for %d took %d signatures and refused %d (tables: %d contexts, %d signatures)", room, kept, refused, ctxs, kerns)
	}
	if _, ok := c.Intern(nil, testKey([]gpusim.Stream{{kernel(1, 1), kernel(1000, 1)}})); ok {
		t.Fatal("a key over a refused signature was built")
	}
	if _, ok := c.Intern(nil, testKey([]gpusim.Stream{{kernel(1, 1), kernel(float64(room), 1)}})); !ok {
		t.Fatal("a key over resident signatures was refused")
	}
	specs := 0
	for i := 0; i < 3*room; i++ {
		if _, ok := c.ContextID(Context(gpusim.TeslaV100, float64(i)*1e-6)); ok {
			specs++
		}
	}
	if ctxs, _, _ := dictLen(c); specs != room || ctxs != room {
		t.Fatalf("context table with room for %d took %d (%d resident)", room, specs, ctxs)
	}
	// The stream table: stages of one stream, 1 to 3*room kernels of one
	// resident signature, each stream new.
	one := kernel(1, 1)
	streamOf := func(n int) []byte {
		s := make(gpusim.Stream, n)
		for i := range s {
			s[i] = one
		}
		return testKey([]gpusim.Stream{s})
	}
	keyed := 0
	for n := 1; n <= 3*room; n++ {
		if _, ok := c.Intern(nil, streamOf(n)); ok {
			keyed++
		}
	}
	// One stream went in with the key over resident signatures above.
	if _, _, streams := dictLen(c); keyed != room-1 || streams != room {
		t.Fatalf("stream table with room for %d took %d new streams (%d resident)", room, keyed, streams)
	}
	over := testKey([]gpusim.Stream{make(gpusim.Stream, 0), {one}, {one, one}})
	for i := 0; i < 2; i++ { // a refusal leaves the stream free to ask again
		done := make(chan bool)
		go func() {
			_, ok := c.Intern(nil, over)
			done <- ok
		}()
		select {
		case ok := <-done:
			if ok {
				t.Fatal("a key over a refused stream was built")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("asking for a refused stream again waits forever")
		}
	}
	if _, ok := c.Intern(nil, testKey([]gpusim.Stream{{one}, {one, one}, {one}})); !ok {
		t.Fatal("a key over resident streams was refused")
	}
	// Invalid signatures never take a slot, bounded or not.
	u := NewCache()
	for _, k := range []gpusim.Kernel{{FLOPs: -1, Blocks: 1, WarpsPerBlock: 1}, {Blocks: 0, WarpsPerBlock: 1}, {Blocks: 1}} {
		if _, ok := u.KernelID(SignatureOf(&k)); ok {
			t.Fatalf("signature of the invalid kernel %+v was interned", k)
		}
	}
	if _, ok := u.ContextID([]byte{KeyVersion, 'x'}); ok {
		t.Fatal("a malformed context was interned")
	}
	for _, rec := range [][]byte{nil, {1}, {1, 0}, {0, 0}, {0x80, 0}} { // u's kernel table is empty
		if _, ok := u.StreamID(rec); ok {
			t.Fatalf("the stream record %x, over no kernel of the table, was interned", rec)
		}
	}
	if ctxs, kerns, streams := dictLen(u); ctxs != 0 || kerns != 0 || streams != 0 {
		t.Fatalf("invalid input grew the dictionary to %d contexts, %d signatures, %d streams", ctxs, kerns, streams)
	}
	// A key cut short in a stream's kernel count interns no stream.
	if _, ok := u.Intern(nil, append(Context(gpusim.TeslaV100, 0), 1)); ok {
		t.Fatal("a key cut short was keyed")
	}
	if _, _, streams := dictLen(u); streams != 0 {
		t.Fatalf("a key cut short interned %d streams", streams)
	}

	// A file with more signatures than the receiver has room for.
	longs, lats := stageSet()
	src := NewCache()
	for i := range longs {
		mustFill(t, src, longs[i], lats[i])
	}
	var file bytes.Buffer
	if err := src.Save(&file); err != nil {
		t.Fatal(err)
	}
	small := NewCacheSize(2)
	n, err := small.Load(bytes.NewReader(file.Bytes()))
	if ctxs, kerns, streams := dictLen(small); err != nil || n == 0 || n >= len(longs) || ctxs != 2 || kerns != 2 || streams != 2 {
		t.Fatalf("Load into a 2-entry dictionary = (%d, %v) with %d contexts, %d signatures, %d streams; want some entries and full tables", n, err, ctxs, kerns, streams)
	}
	ents, _ := small.Snapshot(0)
	if len(ents) != n || small.Len() != n {
		t.Fatalf("a bounded load added %d entries; the cache holds %d, of which %d expand", n, small.Len(), len(ents))
	}
	for _, e := range ents {
		long, lat, err := e.Decode()
		if err != nil {
			t.Fatal(err)
		}
		i := indexOf(longs, long)
		if i < 0 || lats[i] != lat {
			t.Fatalf("a bounded load kept %x = %v, which is not in the file", long, lat)
		}
	}
}

func indexOf(keys [][]byte, k []byte) int {
	for i := range keys {
		if bytes.Equal(keys[i], k) {
			return i
		}
	}
	return -1
}

// TestDictionaryConcurrentInterning: goroutines interning overlapping
// signatures and streams agree on every id, and the tables end with
// exactly the distinct ones. Run with -race.
func TestDictionaryConcurrentInterning(t *testing.T) {
	c := NewCache()
	const workers, sigs = 8, 211 // prime: every stride below visits every signature
	ids, streamIDs := make([][]uint32, workers), make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w], streamIDs[w] = make([]uint32, sigs), make([]uint32, sigs)
			for i := 0; i < sigs; i++ {
				j := (i*(2*w+1) + w) % sigs // each worker in its own order
				k := kernel(float64(j+1), 3)
				id, ok := c.KernelID(SignatureOf(&k))
				if !ok {
					t.Errorf("worker %d: signature %d refused", w, j)
				}
				ids[w][j] = id
				// A stream of the signature twice.
				rec := binary.AppendUvarint(binary.AppendUvarint([]byte{2}, uint64(id)), uint64(id))
				if streamIDs[w][j], ok = c.StreamID(rec); !ok {
					t.Errorf("worker %d: stream %d refused", w, j)
				}
				if _, ok := c.ContextID(Context(gpusim.TeslaV100, float64(j%5))); !ok {
					t.Errorf("worker %d: context %d refused", w, j%5)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(ids[w], ids[0]) || !reflect.DeepEqual(streamIDs[w], streamIDs[0]) {
			t.Fatalf("workers 0 and %d disagree on ids", w)
		}
	}
	if ctxs, kerns, streams := dictLen(c); ctxs != 5 || kerns != sigs || streams != sigs {
		t.Fatalf("tables hold %d contexts, %d signatures and %d streams, want 5, %d and %d", ctxs, kerns, streams, sigs, sigs)
	}
}

// TestKnownStreamTakesNoLock: looking a known stream up — a handful of
// times per stage measured, from every worker — takes no lock: it returns
// while another goroutine holds the dictionary's write lock. A new stream
// waits for it.
func TestKnownStreamTakesNoLock(t *testing.T) {
	c := NewCache()
	key := mustIntern(c, testKey([]gpusim.Stream{{kernel(1, 2), kernel(3, 4)}}))
	rec := []byte{2, 0, 1} // the stream above: its two kernels' ids
	id, ok := c.StreamID(rec)
	if !ok || !bytes.Equal(key, []byte{0, 1, byte(id)}) {
		t.Fatalf("the stream of key %x has id (%d, %v)", key, id, ok)
	}
	c.dict.mu.Lock()
	done := make(chan uint32)
	go func() {
		id, _ := c.StreamID(rec)
		done <- id
	}()
	select {
	case got := <-done:
		if got != id {
			t.Errorf("a known stream read id %d, want %d", got, id)
		}
	case <-time.After(5 * time.Second):
		c.dict.mu.Unlock()
		t.Fatal("looking a known stream up waited on the dictionary's lock")
	}
	// Two goroutines meet one new stream: both miss without the lock and
	// wait for it, and the second to take it finds what the first added.
	for i := 0; i < 2; i++ {
		go func() {
			id, _ := c.StreamID([]byte{1, 1})
			done <- id
		}()
	}
	select {
	case <-done:
		t.Error("a new stream was interned without the dictionary's lock")
	case <-time.After(50 * time.Millisecond):
	}
	c.dict.mu.Unlock()
	if a, b := <-done, <-done; a != id+1 || b != id+1 {
		t.Errorf("the new stream has ids %d and %d, want %d", a, b, id+1)
	}
	if _, _, streams := dictLen(c); streams != 2 {
		t.Errorf("the stream table holds %d streams, want 2", streams)
	}
}

// TestShedStreamIndexTakesNoNewStream: should the stream index ever shed
// an entry (a shard of it holding 61,440 records of over 128 bytes), a
// miss there is no longer proof that a stream is new, so the table takes
// no newcomer: no stream gets a second id, and a stage over the stream
// the index lost cannot be keyed. A one-entry index sheds at the second.
func TestShedStreamIndexTakesNoNewStream(t *testing.T) {
	c := NewCache()
	c.dict.streamIDs = sfcache.NewCore[uint32](1)
	a, b := testKey([]gpusim.Stream{{kernel(1, 1)}}), testKey([]gpusim.Stream{{kernel(2, 2)}})
	ka, kb := mustIntern(c, a), mustIntern(c, b)
	if c.dict.streamIDs.Len() != 1 {
		t.Fatalf("the one-entry index holds %d streams", c.dict.streamIDs.Len())
	}
	for _, long := range [][]byte{a, b} {
		if key, ok := c.Intern(nil, long); ok && !bytes.Equal(key, ka) && !bytes.Equal(key, kb) {
			t.Fatalf("a stream the index shed was keyed anew as %x (first %x and %x)", key, ka, kb)
		}
	}
	if _, ok := c.Intern(nil, testKey([]gpusim.Stream{{kernel(3, 3)}})); ok {
		t.Fatal("a new stream was interned after the index shed")
	}
	if _, _, streams := dictLen(c); streams != 2 {
		t.Fatalf("the stream table holds %d streams, want the 2 it took before the shed", streams)
	}
}

// TestReaderCoversContext: the long-form reader walks exactly what Context
// writes — the two must move together when a Spec field is added — and a
// key's two forms translate into each other without loss.
func TestReaderCoversContext(t *testing.T) {
	named := gpusim.TeslaK80
	named.Name = ""
	for _, ctx := range [][]byte{Context(gpusim.TeslaV100, 0), Context(gpusim.TeslaK80, 2.5e-6), Context(named, 0)} {
		r := keyReader{b: ctx}
		if got := r.context(); r.err != nil || len(got) != len(ctx) || len(r.b) != 0 {
			t.Fatalf("the reader takes %d of Context's %d bytes (%v)", len(got), len(ctx), r.err)
		}
		r = keyReader{b: ctx[:len(ctx)-1]}
		if r.context(); r.err == nil {
			t.Fatal("a context cut short reads as whole")
		}
	}
	longs, _ := stageSet()
	c := NewCache()
	var kr keyReader
	for _, long := range longs {
		key := mustIntern(c, long)
		ctx, stream := expand(c.dict.tables())
		back, err := kr.rewrite(nil, key, ctx, stream)
		if err != nil || !bytes.Equal(back, long) {
			t.Fatalf("id key %x of\n%x\nexpands to\n%x (%v)", key, long, back, err)
		}
		if len(key) >= len(long)/3 {
			t.Fatalf("a %d-byte id key for a %d-byte long form", len(key), len(long))
		}
	}
	// An id past its table has no long form.
	ctx, stream := expand(c.dict.tables())
	ctxs, _, streams := dictLen(c)
	past := [][]byte{
		binary.AppendUvarint([]byte{0, 1}, uint64(streams)), // context 0, one stream
		append(binary.AppendUvarint(nil, uint64(ctxs)), 0),  // no streams
	}
	for _, key := range past {
		if back, err := kr.rewrite(nil, key, ctx, stream); err == nil {
			t.Fatalf("the id key %x, past its tables, expands to %x", key, back)
		}
	}
}
