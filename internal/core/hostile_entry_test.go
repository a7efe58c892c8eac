package core

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"ios/internal/blockcache"
	"ios/internal/graph"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/schedule"
)

// stageMutations are the ways of breaking a searched entry that decoding
// cannot see — every operator index stays in range and scheduled once —
// each as the candidates it offers for one entry's stages.
var stageMutations = []struct {
	name       string
	candidates func(st []blockcache.WireStage) [][]blockcache.WireStage
}{
	{"stages reversed", func(st []blockcache.WireStage) [][]blockcache.WireStage {
		out := slices.Clone(st)
		slices.Reverse(out)
		return [][]blockcache.WireStage{out}
	}},
	{"multi-op concurrent stage flipped to merge", func(st []blockcache.WireStage) [][]blockcache.WireStage {
		var out [][]blockcache.WireStage
		for i, s := range st {
			if s.Strategy == schedule.Concurrent.String() && (len(s.Groups) > 1 || len(s.Groups[0]) > 1) {
				flipped := slices.Clone(st)
				flipped[i].Strategy = schedule.Merge.String()
				out = append(out, flipped)
			}
		}
		return out
	}},
	{"last stage's first group moved to the front", func(st []blockcache.WireStage) [][]blockcache.WireStage {
		last := st[len(st)-1]
		rest := slices.Clone(st)
		if rest[len(rest)-1].Groups = last.Groups[1:]; len(last.Groups) == 1 {
			rest = rest[:len(rest)-1]
		}
		moved := blockcache.WireStage{Strategy: schedule.Concurrent.String(), Groups: last.Groups[:1]}
		return [][]blockcache.WireStage{append([]blockcache.WireStage{moved}, rest...)}
	}},
}

// bindUnchecked places wire stages on a block's nodes with no check at all.
func bindUnchecked(b *graph.Block, st []blockcache.WireStage) []schedule.Stage {
	out := make([]schedule.Stage, len(st))
	for si, ws := range st {
		if ws.Strategy == schedule.Merge.String() {
			out[si].Strategy = schedule.Merge
		}
		for _, idx := range ws.Groups {
			grp := make([]*graph.Node, len(idx))
			for k, i := range idx {
				grp[k] = b.Nodes[i]
			}
			out[si].Groups = append(out[si].Groups, grp)
		}
	}
	return out
}

// hostileEntries returns g's searched block-cache entries with each entry
// replaced by the first of the mutation's candidates that the whole-graph
// Schedule.Validate refuses once bound into g's searched schedule, and how
// many entries it replaced.
func hostileEntries(t *testing.T, g *graph.Graph, searched []blockcache.WireEntry, mutate func([]blockcache.WireStage) [][]blockcache.WireStage) ([]blockcache.WireEntry, int) {
	t.Helper()
	blocks, err := g.Partition(0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(searched))
	decoded := map[string]*blockcache.Entry{}
	for i, we := range searched {
		raw, e, err := we.Decode()
		if err != nil {
			t.Fatal(err)
		}
		keys[i], decoded[string(raw)] = string(raw), e
	}
	prof := v100Profiler()
	owner := map[string]int{} // the first block an entry serves
	perBlock := make([][]schedule.Stage, len(blocks))
	for bi, b := range blocks {
		key := string(blockcache.Fingerprint(b, prof, Options{}.Fingerprint()))
		if decoded[key] == nil {
			t.Fatalf("%s: block %d has no entry", g.Name, bi)
		}
		if _, ok := owner[key]; !ok {
			owner[key] = bi
		}
		if perBlock[bi], err = blockcache.Rebind(b, decoded[key]); err != nil {
			t.Fatal(err)
		}
	}
	out, replaced := slices.Clone(searched), 0
	for i, we := range searched {
		bi := owner[keys[i]]
		for _, cand := range mutate(we.Stages) {
			whole := &schedule.Schedule{Graph: g}
			for bj, st := range perBlock {
				if bj == bi {
					st = bindUnchecked(blocks[bi], cand)
				}
				whole.Stages = append(whole.Stages, st...)
			}
			if whole.Validate() != nil {
				out[i].Stages, replaced = cand, replaced+1
				break
			}
		}
	}
	return out, replaced
}

// TestHostileBlockEntriesAreSearchedLocally: block entries whose stages
// break the stage rules but not the decoder's — stages reversed, a
// multi-op concurrent stage flipped to merge, a group moved ahead of its
// producers — arrive by each way a cache takes entries in (Merge,
// MergeFrames, Load), and every search over that cache, the first and a
// later one, returns the uncached search's schedule bit for bit: Rebind
// refuses such an entry and the block is searched locally, where the
// whole graph's validation used to refuse the search. Each bad key is
// searched once, under a claim, and the result replaces the bad entry: the
// cache counts one miss and one rejection a bad key, and the later search's
// hits are served from the replacements. Inception V3 runs every mutation
// through every way; NasNet-A, whose blocks cost seconds to search again,
// runs mutation i through way i.
func TestHostileBlockEntriesAreSearchedLocally(t *testing.T) {
	builders := []models.Builder{models.InceptionV3, models.NasNetA}
	if testing.Short() || raceEnabled {
		builders = builders[:1]
	}
	frames := func(entries []blockcache.WireEntry) *bytes.Reader {
		c := blockcache.NewCache()
		if _, err := c.Merge(entries); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(buf.Bytes())
	}
	ingest := []struct {
		name string
		fill func(c *blockcache.Cache, entries []blockcache.WireEntry) (int, error)
	}{
		{"Merge", (*blockcache.Cache).Merge},
		{"MergeFrames", func(c *blockcache.Cache, entries []blockcache.WireEntry) (int, error) {
			return c.MergeFrames(frames(entries))
		}},
		{"Load", func(c *blockcache.Cache, entries []blockcache.WireEntry) (int, error) { return c.Load(frames(entries)) }},
	}
	ctx := context.Background()
	for _, build := range builders {
		g := build(1)
		prof := v100Profiler()
		prof.SetMeasureCache(measure.NewCache())
		want, err := OptimizeContext(ctx, g, prof, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := want.Schedule.MarshalJSON()
		searched := blockcache.NewCache()
		if _, err := OptimizeContext(ctx, g, prof, Options{}.WithBlockCache(searched)); err != nil {
			t.Fatal(err)
		}
		entries, _ := searched.Snapshot(0)
		full := g.Name == "Inception V3"
		for mi, m := range stageMutations {
			hostile, n := hostileEntries(t, g, entries, m.candidates)
			t.Logf("%s, %s: %d of %d entries", g.Name, m.name, n, len(entries))
			if n == 0 {
				t.Fatalf("%s, %s: no entry to break; the test is vacuous", g.Name, m.name)
			}
			for ii, in := range ingest {
				if !full && ii != mi {
					continue
				}
				c := blockcache.NewCache()
				if added, err := in.fill(c, hostile); err != nil || added != len(hostile) {
					t.Fatalf("%s, %s: %s added %d of %d: %v", g.Name, m.name, in.name, added, len(hostile), err)
				}
				for run := 1; run <= 2; run++ {
					got, err := OptimizeContext(ctx, g, prof, Options{}.WithBlockCache(c))
					if err != nil {
						t.Fatalf("%s, %s via %s, search %d: %v", g.Name, m.name, in.name, run, err)
					}
					if gotJSON, _ := got.Schedule.MarshalJSON(); !bytes.Equal(gotJSON, wantJSON) {
						t.Fatalf("%s, %s via %s, search %d: the schedule differs from the uncached one", g.Name, m.name, in.name, run)
					}
					if st := c.Stats(); st.Misses != int64(n) || st.Rejected != int64(n) {
						t.Fatalf("%s, %s via %s, after search %d: %d block searches and %d rejections, want each of the %d bad keys searched and replaced once",
							g.Name, m.name, in.name, run, st.Misses, st.Rejected, n)
					}
				}
			}
		}
	}
}
