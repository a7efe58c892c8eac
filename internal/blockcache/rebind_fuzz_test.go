package blockcache_test

import (
	"context"
	"testing"

	"ios/internal/blockcache"
	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/models"
	"ios/internal/profile"
	"ios/internal/schedule"
)

// fuzzStages decodes FuzzRebind's input, one byte a token: 'c' or 'm'
// opens a concurrent or a merge stage, '|' a new group in the current
// stage, and any other byte v puts operator index int(v)-'0' in the
// current group (a byte before any stage opens a concurrent one).
func fuzzStages(data []byte) []blockcache.Stage {
	var out []blockcache.Stage
	for _, c := range data {
		if c == 'c' || c == 'm' || len(out) == 0 {
			strat := schedule.Concurrent
			if c == 'm' {
				strat = schedule.Merge
			}
			out = append(out, blockcache.Stage{Strategy: strat, Groups: [][]int{{}}})
			if c == 'c' || c == 'm' {
				continue
			}
		}
		st := &out[len(out)-1]
		if c == '|' {
			st.Groups = append(st.Groups, []int{})
			continue
		}
		st.Groups[len(st.Groups)-1] = append(st.Groups[len(st.Groups)-1], int(c)-'0')
	}
	return out
}

// FuzzRebind attacks the block-cache hit check with stage lists for
// Inception V3's block of the most stages (see fuzzStages for the encoding). Whatever
// the stages: Rebind does not panic, and when it accepts them, the whole
// graph's schedule of those stages and every other block's searched ones
// passes Schedule.Validate — a hit Rebind lets through never fails the
// search it serves. The seeds (testdata/fuzz/FuzzRebind) are the block's
// searched stages and the three ways core's
// TestHostileBlockEntriesAreSearchedLocally breaks an entry: stages
// reversed, a multi-op concurrent stage flipped to merge, and the last
// stage's first group moved to the front.
func FuzzRebind(f *testing.F) {
	g := models.InceptionV3(1)
	blocks, err := g.Partition(0)
	if err != nil {
		f.Fatal(err)
	}
	res, err := core.OptimizeContext(context.Background(), g, profile.New(gpusim.TeslaV100), core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	target := 0 // the first block of the most stages
	perBlock := make([][]schedule.Stage, len(blocks))
	for bi, b := range blocks {
		for _, st := range res.Schedule.Stages {
			if b.LocalIndex(st.Groups[0][0]) >= 0 {
				perBlock[bi] = append(perBlock[bi], st)
			}
		}
		if len(perBlock[bi]) > len(perBlock[target]) {
			target = bi
		}
	}
	b := blocks[target]
	f.Fuzz(func(t *testing.T, data []byte) {
		stages, err := blockcache.Rebind(b, &blockcache.Entry{Ops: len(b.Nodes), Stages: fuzzStages(data)})
		if err != nil {
			return
		}
		whole := &schedule.Schedule{Graph: g}
		for bi, st := range perBlock {
			if bi == target {
				st = stages
			}
			whole.Stages = append(whole.Stages, st...)
		}
		if err := whole.Validate(); err != nil {
			t.Fatalf("Rebind accepted %q, which the whole graph's validation refuses: %v", data, err)
		}
	})
}
