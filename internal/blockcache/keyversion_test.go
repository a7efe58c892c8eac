// Version-byte discipline tests for the block fingerprint, mirroring
// internal/measure's: the fp:"include" field sets of the operator and
// shape records the encoding covers are pinned per KeyVersion, so
// widening either type without bumping the version byte fails here
// instead of silently colliding with persisted caches from older builds.
package blockcache_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
)

// blockKeyV1Includes pins the exact fp:"include" field sets, in
// declaration order, that KeyVersion 1 of the block encoding covers
// (appendOp consumes Op; appendShape consumes Shape). The ioslint
// fingerprint analyzer separately proves the encoders consume every
// listed field.
var blockKeyV1Includes = []struct {
	typ  reflect.Type
	want []string
}{
	{reflect.TypeOf(graph.Op{}), []string{
		"Kind", "OutChannels", "KernelH", "KernelW", "StrideH", "StrideW",
		"PadH", "PadW", "Groups", "Act", "Pool", "OutFeatures",
	}},
	{reflect.TypeOf(graph.Shape{}), []string{"N", "C", "H", "W"}},
}

// blockIncludeFields lists a struct's fp:"include" fields in declaration
// order, failing on a field with a missing or unknown fp tag.
func blockIncludeFields(t *testing.T, typ reflect.Type) []string {
	t.Helper()
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch tag := f.Tag.Get("fp"); tag {
		case "include":
			fields = append(fields, f.Name)
		case "exempt":
		default:
			t.Fatalf("%s.%s has fp tag %q; every field of a fingerprinted type must carry fp:\"include\" or fp:\"exempt\"", typ.Name(), f.Name, tag)
		}
	}
	return fields
}

// TestBlockKeyVersionPinsIncludeSets fails when Op or Shape grows or
// shrinks its fp:"include" set while blockcache.KeyVersion still says 1.
func TestBlockKeyVersionPinsIncludeSets(t *testing.T) {
	if blockcache.KeyVersion != 1 {
		t.Fatalf("blockcache.KeyVersion = %d: the encoding moved on; re-pin blockKeyV1Includes for the new version", blockcache.KeyVersion)
	}
	for _, pin := range blockKeyV1Includes {
		got := blockIncludeFields(t, pin.typ)
		if !reflect.DeepEqual(got, pin.want) {
			t.Errorf("%s fp:\"include\" fields = %v, want %v\nchanging the field set a block fingerprint covers requires bumping blockcache.KeyVersion and re-pinning this test", pin.typ.Name(), got, pin.want)
		}
	}
}

// TestFingerprintLeadsWithVersionBytes pins the wire layout the
// persistence layer's stale-cache rejection depends on: byte 0 is the
// block encoding's own version, and byte 1 — the start of the embedded
// measurement context — is measure.KeyVersion, so a bump to EITHER
// version invalidates persisted block caches.
func TestFingerprintLeadsWithVersionBytes(t *testing.T) {
	g := graph.New("v")
	in := g.Input("in", graph.Shape{N: 1, C: 8, H: 8, W: 8})
	g.Conv("c", in, graph.ConvOpts{Out: 8, Kernel: 1})
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	key := blockcache.Fingerprint(blocks[0], profile.New(gpusim.TeslaV100), core.Options{}.Fingerprint())
	if len(key) < 2 {
		t.Fatalf("fingerprint is %d bytes, want >= 2", len(key))
	}
	if key[0] != blockcache.KeyVersion {
		t.Errorf("fingerprint byte 0 = %d, want blockcache.KeyVersion %d", key[0], blockcache.KeyVersion)
	}
	if key[1] != measure.KeyVersion {
		t.Errorf("fingerprint byte 1 = %d, want measure.KeyVersion %d (embedded measurement context)", key[1], measure.KeyVersion)
	}
}

// TestFingerprintBytesArePinned pins the encoding itself: a digest of the
// fingerprint of every block of every zoo network, and of a block whose
// operators read 24 boundary nodes — two concats, which inline their
// inputs, and 22 convolutions, each read twice — so the boundary numbering runs past the encoder's
// inline slots. A difference means cache files and peers stop agreeing on
// keys: bump KeyVersion instead of re-pinning.
func TestFingerprintBytesArePinned(t *testing.T) {
	const want = "0acf2b137a731610ba4f2f3215ff34af199f9de64da9d167e77048eaa7ddf865"
	wide := graph.New("wide")
	in := wide.Input("in", graph.Shape{N: 1, C: 8, H: 8, W: 8})
	var convs []*graph.Node
	for i := 0; i < 22; i++ {
		convs = append(convs, wide.Conv("", in, graph.ConvOpts{Out: 8, Kernel: 1}))
	}
	cats := []*graph.Node{wide.Concat("", convs[0], convs[1]), wide.Concat("", convs[2], convs[0])}
	wide.CutBlock()
	wide.Concat("", cats[0], cats[1])
	for i := range convs {
		wide.Add("", convs[i], convs[(i+5)%len(convs)])
	}
	graphs := []*graph.Graph{wide}
	for _, z := range models.Zoo() {
		graphs = append(graphs, z.Build(1))
	}
	optsFP := core.Options{}.Fingerprint()
	h, keys := sha256.New(), 0
	for _, g := range graphs {
		blocks, err := g.Partition(0)
		if err != nil {
			t.Fatal(err)
		}
		prof := profile.New(gpusim.TeslaV100)
		for _, b := range blocks {
			key := blockcache.Fingerprint(b, prof, optsFP)
			h.Write(binary.AppendUvarint(nil, uint64(len(key))))
			h.Write(key)
			keys++
		}
	}
	t.Logf("%d keys of %d graphs", keys, len(graphs))
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("fingerprints digest to %s, want %s", got, want)
	}
}
