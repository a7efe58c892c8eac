package measure_test

import (
	"bytes"
	"testing"

	"ios/internal/measure"
)

// goldenFile is what the pre-sfcache implementation (PR 14's tree) wrote
// for the content below: entries sorted by raw fingerprint, the in-flight
// claim skipped, one trailing newline. A difference here means cache
// files stop being interchangeable with deployed ones — bump the file
// version instead of re-pinning.
const goldenFile = `{"version":1,"entries":[{"key":"AQ","latency":0.000123456789},{"key":"AWE","latency":0},{"key":"AWL_AA","latency":0.0000015}]}` + "\n"

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
	if buf.String() != goldenFile {
		t.Fatalf("Save wrote\n%q\nwant\n%q", buf.String(), goldenFile)
	}
	if n, err := measure.NewCache().Load(bytes.NewReader([]byte(goldenFile))); err != nil || n != 3 {
		t.Fatalf("Load of the golden file = (%d, %v), want (3, nil)", n, err)
	}
}
