// Wire-format pinning tests: WireEntry and WireStage travel both in the
// persisted cache file's records and between cluster peers, so their field sets,
// JSON tags, the file's version stamp, and the key's leading version
// byte are pinned as data. Widening the wire format without moving a
// version fails here with instructions instead of silently shipping
// records old peers misread.
package blockcache_test

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"ios/internal/blockcache"
)

// wireV1Fields pins the exact (field, json tag) pairs, in declaration
// order, of every wire struct in the current format.
var wireV1Fields = []struct {
	typ  reflect.Type
	want [][2]string
}{
	{reflect.TypeOf(blockcache.WireEntry{}), [][2]string{
		{"Key", "key"},
		{"Ops", "ops"},
		{"States", "states"},
		{"Transitions", "transitions"},
		{"Stages", "stages"},
	}},
	{reflect.TypeOf(blockcache.WireStage{}), [][2]string{
		{"Strategy", "strategy"},
		{"Groups", "groups"},
	}},
}

func TestWireFieldSetsPinned(t *testing.T) {
	for _, pin := range wireV1Fields {
		if pin.typ.NumField() != len(pin.want) {
			t.Errorf("blockcache.%s has %d fields, want %d: changing the wire field set changes what every peer and cache file exchange means — bump the persisted-file version (and KeyVersion if key semantics moved), then re-pin this test", pin.typ.Name(), pin.typ.NumField(), len(pin.want))
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

func TestWireFileVersionPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := blockcache.NewCache().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// The header: 4 bytes of magic, the version, the entry count.
	if buf.Len() < 16 || string(buf.Bytes()[:4]) != "IOSF" {
		t.Fatalf("cache file does not start with a frame header: %x", buf.Bytes())
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:8]); v != 2 {
		t.Fatalf("persisted cache file version = %d, want 2: a format change must re-pin this test so old files are rejected loudly", v)
	}
}

func TestWireEntryDecodeRejectsForeignVersionByte(t *testing.T) {
	key := append([]byte{blockcache.KeyVersion + 1}, "payload"...)
	we := blockcache.WireEntry{Key: base64.RawURLEncoding.EncodeToString(key)}
	if _, _, err := we.Decode(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("Decode of a foreign version byte: err = %v, want key-version mismatch", err)
	}
}
