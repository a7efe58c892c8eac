package measure_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"ios/internal/measure"
)

// goldenFile pins the version-2 file for the content below, byte by
// byte: "IOSF", version 2 and the entry count (little-endian), then per
// entry — sorted by raw fingerprint, the in-flight claim skipped — a
// uvarint length, the raw key and the latency's eight little-endian
// bits, then the CRC-32C of everything before it. A difference here
// means cache files stop being interchangeable with deployed ones — bump
// the file version instead of re-pinning.
const goldenFile = "" +
	"494f5346" + "02000000" + "0300000000000000" + // "IOSF", version 2, 3 entries
	"09" + "01" + "411811be852e203f" + // {KeyVersion}: 0.000123456789
	"0a" + "0161" + "0000000000000000" + // {KeyVersion, 'a'}: 0
	"0c" + "0162ff00" + "54e41071732ab93e" + // {KeyVersion, 'b', 0xff, 0}: 1.5e-6
	"72a61786" // CRC-32C

func TestSaveGoldenBytes(t *testing.T) {
	c := measure.NewCache()
	lats := []float64{1.5e-6, 0, 0.000123456789}
	for i, k := range [][]byte{{measure.KeyVersion, 'b', 0xff, 0x00}, {measure.KeyVersion, 'a'}, {measure.KeyVersion}} {
		_, cl, _ := c.GetOrBegin(nil, k)
		cl.Commit(lats[i])
	}
	_, pending, _ := c.GetOrBegin(nil, []byte{measure.KeyVersion, 'p'})
	defer pending.Abandon()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenFile {
		t.Fatalf("Save wrote\n%s\nwant\n%s", got, goldenFile)
	}
	golden, _ := hex.DecodeString(goldenFile)
	fresh := measure.NewCache()
	if n, err := fresh.Load(bytes.NewReader(golden)); err != nil || n != 3 {
		t.Fatalf("Load of the golden file = (%d, %v), want (3, nil)", n, err)
	}
	if lat, ok := fresh.Lookup([]byte{measure.KeyVersion, 'b', 0xff, 0x00}); !ok || lat != 1.5e-6 {
		t.Fatalf("golden entry loaded as (%v, %v), want 1.5e-6", lat, ok)
	}
}
