package plan

import (
	"bytes"
	"testing"
)

// FuzzLoad attacks the plan decoder, reachable from a -plan-dir file at
// boot and from a peer's GET /plans body. Whatever the bytes: nothing
// panics; an accepted plan passes Validate; and Save ∘ Load is the
// identity on what Save writes. The seed corpus (testdata/fuzz/FuzzLoad)
// holds a valid plan and the same plan with a repeated node name, more
// schedules than batches, unsorted batches, batch 0, version 2, and cut
// in half.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("an accepted plan is invalid: %v", err)
		}
		var first, second bytes.Buffer
		if err := p.Save(&first); err != nil {
			t.Fatalf("an accepted plan does not save: %v", err)
		}
		q, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("the re-saved plan is rejected: %v\n%s", err, first.Bytes())
		}
		if err := q.Save(&second); err != nil || !bytes.Equal(second.Bytes(), first.Bytes()) {
			t.Fatalf("re-saving is not stable (%v):\n%s\nwant\n%s", err, second.Bytes(), first.Bytes())
		}
	})
}
