// Wire-format pinning tests for the exchange protocol bodies: the push
// request/response field sets and JSON tags are pinned as data, so
// widening the protocol without thinking about mixed-version fleets
// fails here with instructions. The entries themselves are versioned by
// the caches' WireEntry key bytes, pinned in those packages.
package cluster

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"ios/internal/measure"
)

// pushV1Fields pins the exact (field, json tag) pairs, in declaration
// order, of the POST /cluster/push bodies. Re-pinned once, deliberately,
// from the two-field bodies ("measure" / "measure_added") when
// measurements stopped travelling: a version-behind peer's push still
// carries "measure", which this side ignores, and it never reads
// "measure_added" from the reply (TestMixedVersionPeers).
var pushV1Fields = []struct {
	typ  reflect.Type
	want [][2]string
}{
	{reflect.TypeOf(pushRequest{}), [][2]string{
		{"Block", "block"},
	}},
	{reflect.TypeOf(pushResponse{}), [][2]string{
		{"BlockAdded", "block_added"},
	}},
}

func TestPushBodyFieldSetsPinned(t *testing.T) {
	for _, pin := range pushV1Fields {
		if pin.typ.NumField() != len(pin.want) {
			t.Errorf("cluster.%s has %d fields, want %d: a new push field is invisible to old peers (and an old peer's push drops it), and a removed one is still sent by them (the measurement fields went that way: ignored on receipt, never required in a reply), so change the protocol deliberately — handle absence and presence on both sides, then re-pin this test", pin.typ.Name(), pin.typ.NumField(), len(pin.want))
			continue
		}
		for i, want := range pin.want {
			f := pin.typ.Field(i)
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			if f.Name != want[0] || tag != want[1] {
				t.Errorf("%s field %d = %s (json %q), want %s (json %q)", pin.typ.Name(), i, f.Name, tag, want[0], want[1])
			}
		}
	}
}

// TestMixedVersionPeers: a peer one version behind still exchanges
// measurements. Its push carries a "measure" array next to the blocks —
// accepted, blocks merged, measurements ignored — and its per-key
// measurement GET finds no such endpoint: a 404, which it already treats
// as a definitive miss and simulates locally.
func TestMixedVersionPeers(t *testing.T) {
	n, srv := soloNode(t, nil)
	mkey := base64.RawURLEncoding.EncodeToString([]byte{measure.KeyVersion, 'm'})
	body, err := json.Marshal(map[string]any{
		"block":   []any{blockEntry("b", 1)},
		"measure": []any{measure.WireEntry{Key: mkey, Latency: 1e-6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(n, http.MethodPost, "/cluster/push", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("old-version push: HTTP %d %s, want 200", rec.Code, rec.Body)
	}
	var resp pushResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.BlockAdded != 1 {
		t.Errorf("old-version push reply = %+v (err %v), want block_added 1", resp, err)
	}
	if b, m := srv.BlockCache().Len(), srv.MeasureCache().Len(); b != 1 || m != 0 {
		t.Errorf("after an old-version push: %d blocks, %d measurements; want 1 and 0", b, m)
	}
	if rec := post(n, http.MethodGet, "/cache/measure/"+mkey, ""); rec.Code != http.StatusNotFound {
		t.Errorf("GET /cache/measure/<fp>: HTTP %d, want 404", rec.Code)
	}
}
