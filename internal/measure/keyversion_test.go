// Version-byte discipline tests: the set of fp:"include" fields the
// canonical key encoding covers is pinned, per KeyVersion, as data.
// Growing or shrinking a fingerprinted type without bumping KeyVersion
// would let persisted caches from older builds silently collide with the
// new encoding; these tests turn that mistake into a test failure with
// instructions instead.
package measure_test

import (
	"reflect"
	"testing"

	"ios/internal/gpusim"
	"ios/internal/measure"
)

// keyVersion1Includes pins the exact fp:"include" field sets, in
// declaration order, that KeyVersion 1 of the encoding covers (Context
// consumes Spec; AppendStreams consumes Kernel). blockcache's
// TestKeyEncodersCoverIncludeFields separately proves each listed field
// moves the encoders' output.
var keyVersion1Includes = []struct {
	typ  reflect.Type
	want []string
}{
	{reflect.TypeOf(gpusim.Spec{}), []string{
		"Name", "SMs", "PeakFLOPs", "MemBandwidth", "BlocksPerSM",
		"WarpsPerSM", "WarpsForPeak", "KernelLaunch", "StageSync",
		"ContentionCoef", "MaxConcurrentKernels",
	}},
	{reflect.TypeOf(gpusim.Kernel{}), []string{
		"FLOPs", "Bytes", "Blocks", "WarpsPerBlock",
	}},
}

// includeFields lists a struct's fp:"include" fields in declaration
// order, failing the test on a field with a missing or unknown fp tag.
func includeFields(t *testing.T, typ reflect.Type) []string {
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

// TestKeyVersionPinsIncludeSets fails when the fp:"include" field set of
// a fingerprinted type changes while KeyVersion still says 1 — the
// change alters what cache keys mean, so the version byte must move with
// it (and this pin must be re-recorded under the new version).
func TestKeyVersionPinsIncludeSets(t *testing.T) {
	if measure.KeyVersion != 1 {
		t.Fatalf("measure.KeyVersion = %d: the encoding moved on; re-pin keyVersion1Includes for the new version", measure.KeyVersion)
	}
	for _, pin := range keyVersion1Includes {
		got := includeFields(t, pin.typ)
		if !reflect.DeepEqual(got, pin.want) {
			t.Errorf("%s fp:\"include\" fields = %v, want %v\nchanging the field set a cache key covers requires bumping measure.KeyVersion and re-pinning this test", pin.typ.Name(), got, pin.want)
		}
	}
}

// TestContextLeadsWithVersionByte pins the wire position of the version
// byte: Load's stale-cache rejection reads key[0].
func TestContextLeadsWithVersionByte(t *testing.T) {
	key := measure.Context(gpusim.TeslaV100, 0)
	if len(key) == 0 || key[0] != measure.KeyVersion {
		t.Fatalf("Context key leads with byte %d, want KeyVersion %d", key[0], measure.KeyVersion)
	}
}
