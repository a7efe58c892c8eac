package graph

import (
	"bytes"
	"testing"
)

// FuzzFromJSON attacks the graph decoder, reachable from any /optimize or
// /measure client and, inside a plan file, from a -plan-dir file or a
// peer's plan body. Whatever the bytes: nothing panics; an accepted graph
// passes Validate, partitions and fingerprints; MarshalJSON ∘ FromJSON is
// the identity on the encoding of an accepted graph; and that re-encoding
// fingerprints as the graph does (a parsed graph has no manual cuts). The
// seed corpus (testdata/fuzz/FuzzFromJSON) holds a valid graph, the two
// taken-name graphs (a repeated name, and a name equal to the one an
// unnamed node gets) and a truncated file.
func FuzzFromJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := FromJSON(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("an accepted graph is invalid: %v", err)
		}
		g.Partition(0) // an error is an answer; a panic is not
		fp, err := g.Fingerprint()
		if err != nil {
			t.Fatalf("an accepted graph does not fingerprint: %v", err)
		}
		enc, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := FromJSON(enc)
		if err != nil {
			t.Fatalf("the re-encoding of an accepted graph is rejected: %v\n%s", err, enc)
		}
		if again, err := back.MarshalJSON(); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable (%v):\n%s\nwant\n%s", err, again, enc)
		}
		if fpBack, _ := back.Fingerprint(); fpBack != fp {
			t.Fatalf("the re-encoding fingerprints %s, the graph %s:\n%s", fpBack, fp, enc)
		}
	})
}
