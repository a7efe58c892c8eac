// Package baseline implements the two non-IOS schedules the paper compares
// against in Section 6.1: the sequential schedule (operators one-by-one in
// topological order, i.e. what cuDNN-based frameworks execute) and the
// greedy schedule (Tang et al.'s Graphi-style policy: put every operator
// whose predecessors have completed into the current stage, repeat).
package baseline

import (
	"ios/internal/graph"
	"ios/internal/schedule"
)

// Sequential returns the paper's sequential schedule: "executes the
// operator one-by-one according to certain topological ordering". On a
// real engine this is a single CUDA stream issuing kernels back-to-back,
// so per block it is one stage whose single group lists the block's
// operators in topological order, with stage barriers only at block
// boundaries. The framework engines of Section 6.2 run it too.
func Sequential(g *graph.Graph) (*schedule.Schedule, error) {
	blocks, err := g.Partition(0)
	if err != nil {
		return nil, err
	}
	s := &schedule.Schedule{Graph: g}
	for _, b := range blocks {
		nodes := make([]*graph.Node, len(b.Nodes))
		copy(nodes, b.Nodes)
		s.Stages = append(s.Stages, schedule.Stage{
			Strategy: schedule.Concurrent,
			Groups:   [][]*graph.Node{nodes},
		})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Greedy returns the greedy schedule: repeatedly collect all operators
// whose predecessors are already scheduled into one concurrent stage
// ("executes all available CNN operators whenever possible"). Each ready
// operator forms its own group — ready operators are mutually independent
// by construction.
func Greedy(g *graph.Graph) (*schedule.Schedule, error) {
	s := &schedule.Schedule{Graph: g}
	sched := g.SchedulableNodes()
	done := make(map[*graph.Node]bool, len(sched))
	remaining := len(sched)
	for remaining > 0 {
		var ready []*graph.Node
		for _, n := range sched {
			if done[n] {
				continue
			}
			ok := true
			for _, p := range n.Inputs {
				if p.Op.Kind != graph.OpInput && !done[p] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, n)
			}
		}
		if len(ready) == 0 {
			panic("baseline: greedy scheduler stuck (graph not a DAG?)")
		}
		groups := make([][]*graph.Node, len(ready))
		for i, n := range ready {
			groups[i] = []*graph.Node{n}
			done[n] = true
		}
		remaining -= len(ready)
		s.Stages = append(s.Stages, schedule.Stage{Strategy: schedule.Concurrent, Groups: groups})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
