package blockcache_test

import (
	"bytes"
	"testing"

	"ios/internal/blockcache"
	"ios/internal/schedule"
)

// goldenFile is what the pre-sfcache implementation (PR 14's tree) wrote
// for the content below: entries sorted by raw fingerprint, the in-flight
// claim skipped, one trailing newline. A difference here means cache
// files stop being interchangeable with deployed ones — bump the file
// version instead of re-pinning.
const goldenFile = `{"version":1,"entries":[{"key":"AWE","ops":2,"states":2,"transitions":1,"stages":[{"strategy":"operator merge","groups":[[0]]},{"strategy":"concurrent execution","groups":[[1]]}]},{"key":"AWI","ops":3,"states":5,"transitions":7,"stages":[{"strategy":"concurrent execution","groups":[[0,1],[2]]}]}]}` + "\n"

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
	if buf.String() != goldenFile {
		t.Fatalf("Save wrote\n%q\nwant\n%q", buf.String(), goldenFile)
	}
	if n, err := blockcache.NewCache().Load(bytes.NewReader([]byte(goldenFile))); err != nil || n != 2 {
		t.Fatalf("Load of the golden file = (%d, %v), want (2, nil)", n, err)
	}
}
