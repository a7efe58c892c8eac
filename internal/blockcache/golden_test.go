package blockcache_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"ios/internal/blockcache"
	"ios/internal/schedule"
)

// goldenFile pins the version-2 file for the content below, byte by
// byte: "IOSF", version 2 and the entry count (little-endian), then per
// entry — sorted by raw fingerprint, the in-flight claim skipped — a
// uvarint length and the entry's wire JSON, then the CRC-32C of
// everything before it. A difference here means cache files stop being
// interchangeable with deployed ones — bump the file version instead of
// re-pinning.
var goldenFile = "494f5346" + "02000000" + "0200000000000000" + // "IOSF", version 2, 2 entries
	"9b01" + hex.EncodeToString([]byte(`{"key":"AWE","ops":2,"states":2,"transitions":1,"stages":[{"strategy":"operator merge","groups":[[0]]},{"strategy":"concurrent execution","groups":[[1]]}]}`)) +
	"74" + hex.EncodeToString([]byte(`{"key":"AWI","ops":3,"states":5,"transitions":7,"stages":[{"strategy":"concurrent execution","groups":[[0,1],[2]]}]}`)) +
	"7e0524fb" // CRC-32C

func TestSaveGoldenBytes(t *testing.T) {
	c := blockcache.NewCache()
	put := func(k byte, e *blockcache.Entry) {
		_, cl, _ := c.GetOrBegin(nil, []byte{blockcache.KeyVersion, k})
		cl.Commit(e)
	}
	put('b', &blockcache.Entry{Ops: 3, States: 5, Transitions: 7, Stages: []blockcache.Stage{
		{Strategy: schedule.Concurrent, Groups: [][]int{{0, 1}, {2}}},
	}})
	put('a', &blockcache.Entry{Ops: 2, States: 2, Transitions: 1, Stages: []blockcache.Stage{
		{Strategy: schedule.Merge, Groups: [][]int{{0}}},
		{Strategy: schedule.Concurrent, Groups: [][]int{{1}}},
	}})
	_, pending, _ := c.GetOrBegin(nil, []byte{blockcache.KeyVersion, 'p'})
	defer pending.Abandon()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenFile {
		t.Fatalf("Save wrote\n%s\nwant\n%s", got, goldenFile)
	}
	golden, _ := hex.DecodeString(goldenFile)
	fresh := blockcache.NewCache()
	if n, err := fresh.Load(bytes.NewReader(golden)); err != nil || n != 2 {
		t.Fatalf("Load of the golden file = (%d, %v), want (2, nil)", n, err)
	}
	if e, ok := fresh.Lookup([]byte{blockcache.KeyVersion, 'b'}); !ok || e.Ops != 3 || e.Transitions != 7 {
		t.Fatalf("golden entry loaded as (%+v, %v)", e, ok)
	}
}
