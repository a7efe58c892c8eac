package blockcache

import (
	"reflect"
	"slices"
	"testing"

	"ios/internal/gpusim"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
)

// TestKeyEncodersCoverIncludeFields is the soundness check of the cache
// keys' encoders. It takes real values of every fingerprinted type — the
// V100's Spec, one operator of every kind (zoo nodes and a standalone
// ReLU), the kernels those operators lower to and their output shapes —
// perturbs one field at a time, and runs the value through each encoder of
// its type: measure.Context, measure.AppendStreams, measure.SignatureOf,
// appendOp and appendShape (the block key embeds all of them). An
// fp:"include" field must move the encoder's output for at least one
// sample and an fp:"exempt" field for none; any other tag fails. So a
// field the encoder drops, or reads and writes as a constant, fails here.
// Graph.Fingerprint has the same check in internal/graph's
// TestFingerprintCoversWhatJSONEmits.
func TestKeyEncodersCoverIncludeFields(t *testing.T) {
	var ops []graph.Op
	var shapes []graph.Shape
	var kernels []gpusim.Kernel
	// The zoo has no standalone ReLU, so one small graph adds it.
	relu := graph.New("relu")
	relu.ReLU("r", relu.Input("in", graph.Shape{N: 1, C: 8, H: 8, W: 8}))
	graphs := []*graph.Graph{relu}
	for _, z := range models.Zoo() {
		graphs = append(graphs, z.Build(1))
	}
	prof := profile.New(gpusim.TeslaV100)
	for _, g := range graphs {
		for _, n := range g.Nodes {
			if slices.ContainsFunc(ops, func(op graph.Op) bool { return op.Kind == n.Op.Kind }) {
				continue
			}
			ops = append(ops, n.Op)
			shapes = append(shapes, n.Output)
			kernels = append(kernels, prof.Kernels(n)...)
		}
	}
	if len(ops) != int(graph.OpGlobalPool)+1 {
		t.Fatalf("the samples have %d of the %d op kinds", len(ops), graph.OpGlobalPool+1)
	}
	checkFields(t, "measure.Context", []gpusim.Spec{gpusim.TeslaV100}, func(s gpusim.Spec) any {
		return measure.Context(s, 0)
	})
	checkFields(t, "measure.AppendStreams", kernels, func(k gpusim.Kernel) any {
		return measure.AppendStreams(nil, []gpusim.Stream{{k}})
	})
	checkFields(t, "measure.SignatureOf", kernels, func(k gpusim.Kernel) any {
		return measure.SignatureOf(&k)
	})
	checkFields(t, "appendOp", ops, func(op graph.Op) any {
		var e keyEncoder
		e.appendOp(op)
		return e.key
	})
	checkFields(t, "appendShape", shapes, func(s graph.Shape) any {
		var e keyEncoder
		e.appendShape(s)
		return e.key
	})
}

// checkFields perturbs each field of each sample in turn and requires the
// encoder's output to move as the field's fp tag says.
func checkFields[T any](t *testing.T, encoder string, samples []T, enc func(T) any) {
	t.Helper()
	typ := reflect.TypeOf(samples[0])
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag := f.Tag.Get("fp")
		if tag != "include" && tag != "exempt" {
			t.Errorf("%s.%s has fp tag %q; every field of a fingerprinted type must carry fp:\"include\" or fp:\"exempt\"", typ.Name(), f.Name, tag)
			continue
		}
		moved := 0
		for _, s := range samples {
			m := s
			perturb(t, reflect.ValueOf(&m).Elem().Field(i))
			if !reflect.DeepEqual(enc(m), enc(s)) {
				moved++
			}
		}
		switch {
		case tag == "include" && moved == 0:
			t.Errorf("%s ignores %s.%s (fp:\"include\") on all %d samples: two values differing only in it would share a cache key; encode it and bump KeyVersion, or tag it fp:\"exempt\"", encoder, typ.Name(), f.Name, len(samples))
		case tag == "exempt" && moved > 0:
			t.Errorf("%s.%s is fp:\"exempt\" but moves %s on %d of %d samples", typ.Name(), f.Name, encoder, moved, len(samples))
		}
	}
}

// perturb changes a field to a different value of its kind.
func perturb(t *testing.T, v reflect.Value) {
	switch {
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanFloat():
		v.SetFloat(v.Float()*2 + 1)
	case v.Kind() == reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("no perturbation for a field of kind %s", v.Kind())
	}
}
