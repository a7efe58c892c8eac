package core

import (
	"math/rand"
	"testing"

	"ios/internal/bitset"
	"ios/internal/graph"
)

// buildBlock constructs a single-block graph from an adjacency list over n
// conv nodes (edge i->j requires i < j; multi-input nodes become Adds).
func buildBlock(t *testing.T, n int, edges [][2]int) *graph.Block {
	t.Helper()
	g := graph.New("t")
	in := g.Input("in", graph.Shape{N: 1, C: 4, H: 8, W: 8})
	// Declare a single manual block so the automatic partition cannot
	// split the test topology at its internal single-producer cuts.
	g.CutBlock()
	preds := make([][]int, n)
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("bad edge %v", e)
		}
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	nodes := make([]*graph.Node, n)
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		switch len(preds[i]) {
		case 0:
			nodes[i] = g.Conv(name, in, graph.ConvOpts{Out: 4, Kernel: 3})
		case 1:
			nodes[i] = g.Conv(name, nodes[preds[i][0]], graph.ConvOpts{Out: 4, Kernel: 3})
		default:
			srcs := make([]*graph.Node, len(preds[i]))
			for j, p := range preds[i] {
				srcs[j] = nodes[p]
			}
			nodes[i] = g.Add(name, srcs...)
		}
	}
	blocks, err := g.Partition(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("test graph split into %d blocks", len(blocks))
	}
	return blocks[0]
}

// isEnding checks the ending property by definition: no edge from the
// ending into the remainder of s.
func isEnding(b *graph.Block, s, ending bitset.Set) bool {
	if ending.IsEmpty() || !ending.SubsetOf(s) {
		return false
	}
	ok := true
	ending.ForEach(func(e int) bool {
		if b.Succs(e).Intersect(s).Diff(ending) != bitset.Empty() {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func TestEndingsOfDiamond(t *testing.T) {
	// a -> b, a -> c, b -> d, c -> d (diamond shape plus input fanout is
	// irrelevant here).
	b := buildBlock(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	var got []bitset.Set
	forEachEnding(b, b.All(), Pruning{}, func(e bitset.Set, _ []bitset.Set) bool {
		got = append(got, e)
		return true
	})
	// Endings of {a,b,c,d}: any successor-closed nonempty subset:
	// {d}, {b,d}, {c,d}, {b,c,d}, {a,b,c,d}.
	want := []bitset.Set{
		bitset.Of(3), bitset.Of(1, 3), bitset.Of(2, 3),
		bitset.Of(1, 2, 3), bitset.Of(0, 1, 2, 3),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d endings %v, want %d", len(got), got, len(want))
	}
	seen := map[bitset.Set]bool{}
	for _, e := range got {
		seen[e] = true
	}
	for _, e := range want {
		if !seen[e] {
			t.Errorf("missing ending %v", e)
		}
	}
}

// TestEndingsMatchBruteForce enumerates endings by brute force on random
// DAGs and compares sets, with and without pruning.
func TestEndingsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(7)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.35 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		b := buildBlock(t, n, edges)
		for _, prune := range []Pruning{{}, {R: 2, S: 2}, {R: 1, S: 3}} {
			// Random sub-state that is a valid DP state (down-set).
			s := b.All()
			if trial%2 == 1 {
				// Remove a random ending to get a smaller down-set.
				var endings []bitset.Set
				forEachEnding(b, s, Pruning{}, func(e bitset.Set, _ []bitset.Set) bool {
					endings = append(endings, e)
					return true
				})
				s = s.Diff(endings[rng.Intn(len(endings))])
				if s.IsEmpty() {
					continue
				}
			}
			got := map[bitset.Set]bool{}
			forEachEnding(b, s, prune, func(e bitset.Set, _ []bitset.Set) bool {
				if got[e] {
					t.Fatalf("duplicate ending %v", e)
				}
				got[e] = true
				return true
			})
			// Brute force over all subsets of s.
			elems := s.Elems()
			for mask := 1; mask < 1<<len(elems); mask++ {
				var cand bitset.Set
				for i, e := range elems {
					if mask&(1<<i) != 0 {
						cand = cand.Add(e)
					}
				}
				valid := isEnding(b, s, cand) && admissibleRef(b, cand, prune)
				if valid != got[cand] {
					t.Fatalf("trial %d prune %v: ending %v of %v: brute=%v enum=%v",
						trial, prune, cand, s, valid, got[cand])
				}
			}
		}
	}
}

// admissibleRef is a reference implementation of the pruning predicate:
// connected components of the ending must number at most S with size at
// most R.
func admissibleRef(b *graph.Block, ending bitset.Set, prune Pruning) bool {
	groups := groupsOf(b, ending)
	if prune.S > 0 && len(groups) > prune.S {
		return false
	}
	if prune.R > 0 {
		for _, g := range groups {
			if g.Len() > prune.R {
				return false
			}
		}
	}
	return true
}

func TestGroupsOf(t *testing.T) {
	// a->b, c isolated, d->e: groups of {a,b,c,d,e} are {a,b}, {c}, {d,e}.
	b := buildBlock(t, 5, [][2]int{{0, 1}, {3, 4}})
	groups := groupsOf(b, bitset.Of(0, 1, 2, 3, 4))
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	want := []bitset.Set{bitset.Of(0, 1), bitset.Of(2), bitset.Of(3, 4)}
	for i := range want {
		if groups[i] != want[i] {
			t.Errorf("group %d = %v, want %v", i, groups[i], want[i])
		}
	}
}

func TestEndingEarlyStop(t *testing.T) {
	b := buildBlock(t, 4, [][2]int{{0, 1}})
	count := 0
	forEachEnding(b, b.All(), Pruning{}, func(e bitset.Set, _ []bitset.Set) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d endings", count)
	}
}

// TestEnumeratorGroupsMatchBFS: the component structure the enumerator
// tracks incrementally must equal groupsOf's BFS derivation (up to order)
// for every emitted ending, so stage construction can trust it.
func TestEnumeratorGroupsMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(7)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.35 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		b := buildBlock(t, n, edges)
		for _, prune := range []Pruning{{}, {R: 2, S: 2}, {R: 3, S: 8}} {
			forEachEnding(b, b.All(), prune, func(e bitset.Set, groups []bitset.Set) bool {
				got := append([]bitset.Set(nil), groups...)
				sortGroups(got)
				want := groupsOf(b, e)
				if len(got) != len(want) {
					t.Fatalf("ending %v: %d groups, want %d", e, len(got), len(want))
				}
				var union bitset.Set
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("ending %v: group %d = %v, want %v", e, i, got[i], want[i])
					}
					union = union.Union(got[i])
				}
				if union != e {
					t.Fatalf("ending %v: groups %v do not partition it", e, got)
				}
				return true
			})
		}
	}
}
