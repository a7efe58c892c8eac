package graph_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ios/internal/graph"
	"ios/internal/models"
)

func fingerprint(t *testing.T, g *graph.Graph) string {
	t.Helper()
	fp, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func jsonTwin(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := graph.FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// TestFingerprintOfJSONTwin: a zoo model without manual block cuts
// fingerprints equal to its JSON round trip, at batch 1 and 8; NasNet and
// RandWire, whose builders cut blocks the JSON form does not carry (so
// their twins partition differently), do not.
func TestFingerprintOfJSONTwin(t *testing.T) {
	cut := map[string]bool{}
	for _, e := range models.Zoo() {
		for _, batch := range []int{1, 8} {
			g := e.Build(batch)
			twin := jsonTwin(t, g)
			hasCuts := len(graph.Cuts(g)) > 0
			cut[e.Name] = hasCuts
			if same := fingerprint(t, g) == fingerprint(t, twin); same == hasCuts {
				t.Errorf("%s b%d (manual cuts %v): fingerprint equal to its JSON twin's = %v", e.Name, batch, hasCuts, same)
			}
		}
	}
	if !cut["nasnet"] || !cut["randwire"] || cut["inception"] {
		t.Errorf("manual cuts per model = %v; want NasNet and RandWire only among the paper's four", cut)
	}
}

// everyKind builds a small graph with one node of each op kind.
func everyKind() *graph.Graph {
	g := graph.New("kinds")
	in := g.Input("in", graph.Shape{N: 2, C: 3, H: 32, W: 32})
	c := g.Conv("c", in, graph.ConvOpts{Out: 8, Kernel: 3, Stride: 2})
	s := g.SepConv("s", c, graph.ConvOpts{Out: 8, Kernel: 5, Stride: 2})
	p := g.Pool("p", c, graph.PoolOpts{Kernel: 3, Stride: 2, Avg: true})
	a := g.Add("a", s, p)
	cat := g.Concat("cat", a, s)
	r := g.ReLU("r", cat)
	id := g.Identity("id", r)
	gp := g.GlobalPool("gp", id)
	g.Matmul("fc", gp, 10)
	return g
}

// TestFingerprintCoversWhatJSONEmits: changing any one field of a node — an
// Op field, the output shape, the name, an input — or the graph's name
// changes the fingerprint exactly when it changes MarshalJSON's bytes, so
// the fingerprint reads every field the JSON form emits for an op kind and
// none it omits. Both outcomes must occur for the check to mean anything.
func TestFingerprintCoversWhatJSONEmits(t *testing.T) {
	base := everyKind()
	baseJSON, err := base.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	baseFP := fingerprint(t, base)
	emitted, omitted := 0, 0
	check := func(what string, mutate func(g *graph.Graph)) bool {
		t.Helper()
		g := everyKind()
		mutate(g)
		data, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		jsonChanged := !bytes.Equal(data, baseJSON)
		fpChanged := fingerprint(t, g) != baseFP
		if jsonChanged != fpChanged {
			t.Errorf("%s: JSON changed %v, fingerprint changed %v", what, jsonChanged, fpChanged)
		}
		if jsonChanged {
			emitted++
		} else {
			omitted++
		}
		return fpChanged
	}

	check("graph name", func(g *graph.Graph) { g.Name += "'" })
	opType := reflect.TypeOf(graph.Op{})
	moved := map[string]bool{} // Op fields that moved the fingerprint on some node
	for i := range base.Nodes {
		node := base.Nodes[i].Name
		for f := 0; f < opType.NumField(); f++ {
			field := opType.Field(f).Name
			for _, delta := range []int64{1, 2} {
				if check(fmt.Sprintf("%s Op.%s%+d", node, field, delta), func(g *graph.Graph) {
					v := reflect.ValueOf(&g.Nodes[i].Op).Elem().Field(f)
					v.SetInt(v.Int() + delta)
				}) {
					moved[field] = true
				}
			}
		}
		for d, dim := range []string{"N", "C", "H", "W"} {
			check(fmt.Sprintf("%s Output.%s", node, dim), func(g *graph.Graph) {
				reflect.ValueOf(&g.Nodes[i].Output).Elem().Field(d).SetInt(99)
			})
		}
		check(node+" name", func(g *graph.Graph) { g.Nodes[i].Name += "'" })
		if len(base.Nodes[i].Inputs) > 0 && i > 1 {
			check(node+" input", func(g *graph.Graph) { g.Nodes[i].Inputs[0] = g.Nodes[i-1] })
		}
	}
	for f := 0; f < opType.NumField(); f++ {
		if field := opType.Field(f); field.Tag.Get("fp") == "include" && !moved[field.Name] {
			t.Errorf("Op.%s is fp:\"include\" but moved the fingerprint on no node", field.Name)
		}
	}
	if emitted == 0 || omitted == 0 {
		t.Fatalf("%d changes reached the JSON and %d did not; want both", emitted, omitted)
	}
	t.Logf("%d changes reached the JSON and the fingerprint, %d reached neither", emitted, omitted)
}

// TestFingerprintCoversCuts: the same nodes cut into different blocks are
// different graphs to a cache, because Partition follows the cuts.
func TestFingerprintCoversCuts(t *testing.T) {
	build := func(cutAfter int) *graph.Graph {
		g := graph.New("cuts")
		n := g.Input("in", graph.Shape{N: 1, C: 8, H: 8, W: 8})
		for i := 0; i < 4; i++ {
			if i == cutAfter {
				g.CutBlock()
			}
			n = g.ReLU("", n)
		}
		return g
	}
	seen := map[string]int{}
	for cutAfter := -1; cutAfter < 4; cutAfter++ {
		fp := fingerprint(t, build(cutAfter))
		if other, dup := seen[fp]; dup {
			t.Errorf("cut before relu %d and before relu %d share fingerprint %s", cutAfter, other, fp)
		}
		seen[fp] = cutAfter
	}
}

// BenchmarkFingerprint reports what fingerprinting Inception V3 costs: the
// price of every first graph submission to a server and of every
// Engine.Optimize call with a cache.
func BenchmarkFingerprint(b *testing.B) {
	g := models.InceptionV3(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Fingerprint(); err != nil {
			b.Fatal(err)
		}
	}
}
