package measure

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"ios/internal/gpusim"
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
	if ctxs, kerns := dictLen(c); kept != room || refused != 9*room || kerns != room || ctxs != 0 {
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
	if ctxs, _ := dictLen(c); specs != room || ctxs != room {
		t.Fatalf("context table with room for %d took %d (%d resident)", room, specs, ctxs)
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
	if ctxs, kerns := dictLen(u); ctxs != 0 || kerns != 0 {
		t.Fatalf("invalid input grew the dictionary to %d contexts, %d signatures", ctxs, kerns)
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
	if ctxs, kerns := dictLen(small); err != nil || n == 0 || n >= len(longs) || ctxs != 2 || kerns != 2 {
		t.Fatalf("Load into a 2-entry dictionary = (%d, %v) with %d contexts, %d signatures; want some entries and full tables", n, err, ctxs, kerns)
	}
	ents, _ := small.Snapshot(0)
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
// signatures agree on every id, and the tables end with exactly the
// distinct ones. Run with -race.
func TestDictionaryConcurrentInterning(t *testing.T) {
	c := NewCache()
	const workers, sigs = 8, 211 // prime: every stride below visits every signature
	ids := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]uint32, sigs)
			for i := 0; i < sigs; i++ {
				j := (i*(2*w+1) + w) % sigs // each worker in its own order
				k := kernel(float64(j+1), 3)
				id, ok := c.KernelID(SignatureOf(&k))
				if !ok {
					t.Errorf("worker %d: signature %d refused", w, j)
				}
				ids[w][j] = id
				if _, ok := c.ContextID(Context(gpusim.TeslaV100, float64(j%5))); !ok {
					t.Errorf("worker %d: context %d refused", w, j%5)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(ids[w], ids[0]) {
			t.Fatalf("workers 0 and %d disagree on ids", w)
		}
	}
	if ctxs, kerns := dictLen(c); ctxs != 5 || kerns != sigs {
		t.Fatalf("tables hold %d contexts and %d signatures, want 5 and %d", ctxs, kerns, sigs)
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
		ctx, kern := expand(c.dict.tables())
		back, err := kr.rewrite(nil, key, ctx, kern)
		if err != nil || !bytes.Equal(back, long) {
			t.Fatalf("id key %x of\n%x\nexpands to\n%x (%v)", key, long, back, err)
		}
		if len(key) >= len(long)/3 {
			t.Fatalf("a %d-byte id key for a %d-byte long form", len(key), len(long))
		}
	}
}
