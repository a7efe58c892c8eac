package graph

import (
	"strings"
	"testing"
)

func TestGraphJSONRoundTrip(t *testing.T) {
	g := New("round")
	in := g.Input("in", Shape{1, 3, 32, 32})
	c := g.Conv("c", in, ConvOpts{Out: 8, Kernel: 3, Stride: 2})
	s := g.SepConv("s", c, ConvOpts{Out: 8, Kernel: 5, Stride: 2})
	p := g.Pool("p", c, PoolOpts{Kernel: 3, Stride: 2, Avg: true})
	// Shapes match for add: both 1x8x8x8.
	a := g.Add("a", s, p)
	cat := g.Concat("cat", a, s)
	r := g.ReLU("r", cat)
	gp := g.GlobalPool("gp", r)
	g.Matmul("fc", gp, 10)

	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(g.Nodes) {
		t.Fatalf("nodes = %d, want %d", len(back.Nodes), len(g.Nodes))
	}
	for i, n := range g.Nodes {
		bn := back.Nodes[i]
		if bn.Name != n.Name || bn.Op.Kind != n.Op.Kind || bn.Output != n.Output {
			t.Errorf("node %d mismatch: %v vs %v (out %v vs %v)", i, bn.Op, n.Op, bn.Output, n.Output)
		}
		if len(bn.Inputs) != len(n.Inputs) {
			t.Errorf("node %d inputs = %d, want %d", i, len(bn.Inputs), len(n.Inputs))
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromJSONErrors(t *testing.T) {
	cases := []string{
		`{`, // malformed
		`{"name":"x","nodes":[{"name":"a","op":"conv","inputs":["nope"],"out":4}]}`,                                                        // unknown input
		`{"name":"x","nodes":[{"name":"a","op":"warp","inputs":[]}]}`,                                                                      // unknown op
		`{"name":"x","nodes":[{"name":"a","op":"input"}]}`,                                                                                 // input without shape
		`{"name":"x","nodes":[{"name":"i","op":"input","shape":[1,3,8,8]},{"name":"c","op":"conv","inputs":["i"],"out":4,"act":"swish"}]}`, // bad act
	}
	for i, c := range cases {
		if _, err := FromJSON([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestFromJSONRejectsTakenNames: a node name already in use — spelled out
// twice, or equal to the "<kind>_<index>" name an unnamed node gets — is
// an error, not the builder's duplicate-name panic.
func TestFromJSONRejectsTakenNames(t *testing.T) {
	cases := map[string]string{
		"repeated name": `{"name":"x","nodes":[{"name":"a","op":"input","shape":[1,3,8,8]},{"name":"a","op":"relu","inputs":["a"]}]}`,
		"default name":  `{"name":"x","nodes":[{"name":"relu_1","op":"input","shape":[1,3,8,8]},{"op":"relu","inputs":["relu_1"]}]}`,
	}
	for name, data := range cases {
		_, err := FromJSON([]byte(data))
		if err == nil || !strings.Contains(err.Error(), "already taken") {
			t.Errorf("%s: err = %v, want a taken-name error", name, err)
		}
	}
}

func TestFromJSONDefaults(t *testing.T) {
	data := `{"name":"d","nodes":[
		{"name":"i","op":"input","shape":[1,3,8,8]},
		{"name":"c","op":"conv","inputs":["i"],"out":4,"kernel_h":3,"kernel_w":3,"pad_h":1,"pad_w":1}
	]}`
	g, err := FromJSON([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	c := g.NodeByName("c")
	if c.Op.StrideH != 1 || c.Op.Groups != 1 {
		t.Errorf("defaults not applied: %+v", c.Op)
	}
	if c.Output != (Shape{1, 4, 8, 8}) {
		t.Errorf("shape = %v", c.Output)
	}
}

func TestFingerprintStability(t *testing.T) {
	build := func() *Graph {
		g := New("fp")
		in := g.Input("in", Shape{N: 1, C: 3, H: 8, W: 8})
		g.Conv("c1", in, ConvOpts{Out: 4, Kernel: 3})
		return g
	}
	a := build()
	b := build()
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("identical graphs fingerprint differently: %s vs %s", fa, fb)
	}
	if len(fa) != 16 {
		t.Errorf("fingerprint %q is not 16 hex digits", fa)
	}
	// A structural change (different batch) changes the hash.
	c := New("fp")
	in := c.Input("in", Shape{N: 2, C: 3, H: 8, W: 8})
	c.Conv("c1", in, ConvOpts{Out: 4, Kernel: 3})
	fc, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fc == fa {
		t.Error("different graphs share a fingerprint")
	}
	// The fingerprint survives a JSON round trip of the graph.
	data, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	fback, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fback != fa {
		t.Errorf("fingerprint changed across JSON round trip: %s vs %s", fback, fa)
	}
}
