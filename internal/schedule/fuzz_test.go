package schedule_test

import (
	"bytes"
	"math"
	"testing"

	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// FuzzFromJSON attacks the schedule-recipe decoder — reachable from any
// /measure client — with the bytes bound against two fixed zoo graphs
// (SqueezeNet and the Figure 2 block). A recipe is accepted when FromJSON
// decodes it and Validate, which every caller runs next, passes. Whatever
// the bytes: nothing panics; an accepted schedule measures, to a finite
// positive latency on a fresh V100 profiler (Validate rejects a merge
// stage over operators that are not merge-eligible, the one thing the
// lowering refuses); and MarshalJSON ∘ FromJSON is the identity on
// accepted input: the re-encoded recipe
// decodes to the same stages and re-encodes to the same bytes. The seed
// corpus (testdata/fuzz/FuzzFromJSON) holds the IOS, sequential and greedy
// schedules of both graphs plus truncated and field-swapped variants.
func FuzzFromJSON(f *testing.F) {
	graphs := []*graph.Graph{models.SqueezeNet(1), models.Figure2Block(1)}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range graphs {
			s, err := schedule.FromJSON(data, g)
			if err != nil || s.Validate() != nil {
				continue
			}
			lat, err := profile.New(gpusim.TeslaV100).MeasureSchedule(s)
			if err != nil {
				t.Fatalf("%s: an accepted schedule does not measure: %v", g.Name, err)
			}
			if !(lat > 0) || math.IsInf(lat, 0) {
				t.Fatalf("%s: an accepted schedule measured %v", g.Name, lat)
			}

			enc, err := s.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			back, err := schedule.FromJSON(enc, g)
			if err != nil {
				t.Fatalf("%s: the re-encoding of an accepted schedule is rejected: %v", g.Name, err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("%s: the re-encoding of an accepted schedule is invalid: %v", g.Name, err)
			}
			if back.String() != s.String() {
				t.Fatalf("%s: re-decoded schedule differs:\n%s\nwant\n%s", g.Name, back, s)
			}
			if again, err := back.MarshalJSON(); err != nil || !bytes.Equal(again, enc) {
				t.Fatalf("%s: re-encoding is not stable (%v):\n%s\nwant\n%s", g.Name, err, again, enc)
			}
		}
	})
}
