// Wire-format pinning tests: WireEntry is the unit of cluster peer
// exchange, so its field set and its JSON tags are pinned as data, and
// so are the cache file's version stamp and the key's leading version
// byte. Widening the wire format without moving a version fails here
// with instructions instead of silently shipping records old peers
// misread.
package measure_test

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"ios/internal/measure"
)

// wireEntryV1Fields pins WireEntry's exact (field, json tag) pairs in
// declaration order for the current format.
var wireEntryV1Fields = [][2]string{
	{"Key", "key"},
	{"Latency", "latency"},
}

func TestWireEntryFieldSetPinned(t *testing.T) {
	typ := reflect.TypeOf(measure.WireEntry{})
	if typ.NumField() != len(wireEntryV1Fields) {
		t.Fatalf("measure.WireEntry has %d fields, want %d: changing the wire field set changes what every peer and cache file exchange means — bump the persisted-file version (and KeyVersion if key semantics moved), then re-pin this test", typ.NumField(), len(wireEntryV1Fields))
	}
	for i, want := range wireEntryV1Fields {
		f := typ.Field(i)
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if f.Name != want[0] || tag != want[1] {
			t.Errorf("WireEntry field %d = %s (json %q), want %s (json %q)", i, f.Name, tag, want[0], want[1])
		}
	}
}

func TestWireFileVersionPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := measure.NewCache().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// The header: 4 bytes of magic, the version, the entry count.
	if buf.Len() < 16 || string(buf.Bytes()[:4]) != "IOSF" {
		t.Fatalf("cache file does not start with a frame header: %x", buf.Bytes())
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:8]); v != 4 {
		t.Fatalf("persisted cache file version = %d, want 4: a format change must re-pin this test so old files are rejected loudly", v)
	}
}

func TestWireEntryDecodeRejectsForeignVersionByte(t *testing.T) {
	key := append([]byte{measure.KeyVersion + 1}, "payload"...)
	we := measure.WireEntry{Key: base64.RawURLEncoding.EncodeToString(key), Latency: 1}
	if _, _, err := we.Decode(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("Decode of a foreign version byte: err = %v, want key-version mismatch", err)
	}
}
