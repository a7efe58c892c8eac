package measure_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"ios/internal/gpusim"
	"ios/internal/measure"
)

// goldenFile pins the version-4 file for the content below, byte by
// byte: "IOSF", version 4 and the entry count (little-endian); the
// context table (a count, then per context a uvarint length and its
// Context bytes); the kernel-signature table (a count, then per signature
// a length and FLOPs, Bytes — float64 bits, little-endian — Blocks and
// WarpsPerBlock — uvarints), both sorted by those bytes; the stream table
// (a count, then per stream a length, its kernel count and kernel ids,
// uvarints, ids by table index), sorted by those bytes; then per entry —
// sorted by id key, the in-flight claim skipped — a length, the id key
// (context id, stream count and stream ids, all uvarints) and the
// latency's eight little-endian bits; then the CRC-32C of everything
// before it. A difference here means cache files stop being
// interchangeable with deployed ones — bump the file version instead of
// re-pinning.
const goldenFile = "" +
	"494f5346" + "04000000" + "0300000000000000" + // "IOSF", version 4, 3 entries
	"01" + "42" + goldenContext + // 1 context: Context(TeslaV100, 0), 66 bytes
	"02" + // 2 signatures
	"12" + "0000000000000840" + "0000000000001040" + "0510" + // 0: FLOPs 3, Bytes 4, 5 blocks x 16 warps
	"12" + "000000000000f03f" + "0000000000000040" + "0408" + // 1: FLOPs 1, Bytes 2, 4 blocks x 8 warps
	"03" + // 3 streams
	"02" + "0100" + // 0: kernel 0
	"02" + "0101" + // 1: kernel 1
	"03" + "020001" + // 2: kernels 0, 1
	"0a" + "0000" + "411811be852e203f" + // context 0, no streams: 0.000123456789
	"0b" + "000101" + "54e41071732ab93e" + // stream 1: 1.5e-6
	"0c" + "000202" + "00" + "0000000000000000" + // streams 2 and 0: 0
	"f46e2b4a" // CRC-32C

// goldenContext is measure.Context(gpusim.TeslaV100, 0): KeyVersion, the
// device name (length-prefixed) and every numeric Spec field, then the
// dispatch overhead.
const goldenContext = "01" + "0a" + "5465736c612056313030" + // KeyVersion, "Tesla V100"
	"50" + "000090d8e18eac42" + "000000c585316a42" + "10" + "40" + "10" + // SMs ... WarpsForPeak
	"8dedb5a0f7c6d03e" + "f168e388b5f8d43e" + "7b14ae47e17ab43f" + "8001" + // KernelLaunch ... MaxConcurrentKernels
	"0000000000000000" // no dispatch overhead

func TestSaveGoldenBytes(t *testing.T) {
	c := measure.NewCache()
	ctx := measure.Context(gpusim.TeslaV100, 0)
	k0 := gpusim.Kernel{FLOPs: 3, Bytes: 4, Blocks: 5, WarpsPerBlock: 16}
	k1 := gpusim.Kernel{FLOPs: 1, Bytes: 2, Blocks: 4, WarpsPerBlock: 8}
	key := func(streams ...gpusim.Stream) []byte {
		key, ok := c.Intern(nil, measure.AppendStreams(bytes.Clone(ctx), streams))
		if !ok {
			t.Fatal("stage cannot be keyed")
		}
		return key
	}
	// Filled so that the cache numbers k1 before k0, and the stream {k1}
	// first: the file, which sorts signatures and streams by their bytes,
	// does not.
	lats := []float64{1.5e-6, 0, 0.000123456789}
	for i, k := range [][]byte{key(gpusim.Stream{k1}), key(gpusim.Stream{k0, k1}, gpusim.Stream{k0}), key()} {
		_, cl, _ := c.GetOrBegin(nil, k)
		cl.Commit(lats[i])
	}
	_, pending, _ := c.GetOrBegin(nil, key(gpusim.Stream{k0, k0}))
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
	// A restart into an empty cache adopts the file's numbering as it stands.
	if lat, ok := fresh.Lookup([]byte{0, 1, 1}); !ok || lat != 1.5e-6 {
		t.Fatalf("golden entry loaded as (%v, %v), want 1.5e-6", lat, ok)
	}
}
