package graph

import (
	"fmt"

	"ios/internal/bitset"
)

// Block partitioning (Section 4.2: "Modern convolution neural networks
// usually construct the network by stacking multiple blocks, making it
// possible to optimize each block separately").
//
// We cut the topologically ordered operator list after any node that is the
// sole producer crossing the boundary: if every edge from {nodes[0..i]} to
// {nodes[i+1..]} originates at nodes[i], then everything after i depends on
// the rest of the network only through nodes[i]'s output, so the optimal
// schedule decomposes at that point. For stacked multi-branch CNNs this
// cuts exactly after each block's Concat (and after each stem conv/pool),
// reproducing the paper's per-block structure.

// Block is a contiguous-in-topological-order set of schedulable operators
// optimized independently.
type Block struct {
	// Index is the block's position in the network (0-based).
	Index int
	// Nodes lists the block's operators in topological order.
	Nodes []*Node

	// succ[i] is the set of block-local successor indices of Nodes[i]
	// (direct edges within the block).
	succ []bitset.Set
	// pred[i] is the set of block-local predecessor indices.
	pred []bitset.Set
}

// Succs returns the block-local direct-successor set of the i-th node.
func (b *Block) Succs(i int) bitset.Set { return b.succ[i] }

// Preds returns the block-local direct-predecessor set of the i-th node.
func (b *Block) Preds(i int) bitset.Set { return b.pred[i] }

// All returns the set of all operator indices in the block.
func (b *Block) All() bitset.Set { return bitset.Full(len(b.Nodes)) }

// LocalIndex returns the block-local index of a node, or -1. A block's
// nodes ascend by ID, consecutively unless a graph input sits between two
// of them, so the ID's offset from the first node finds a member in one
// probe, and only an ID within the block's range that the probe misses is
// looked for node by node.
func (b *Block) LocalIndex(n *Node) int {
	first, last := b.Nodes[0].ID, b.Nodes[len(b.Nodes)-1].ID
	if i := n.ID - first; uint(i) < uint(len(b.Nodes)) && b.Nodes[i] == n {
		return i
	}
	if first <= n.ID && n.ID <= last {
		for i, m := range b.Nodes {
			if m == n {
				return i
			}
		}
	}
	return -1
}

// Width returns the width (largest antichain) of the block. Reachability
// among block nodes only ever runs inside the block — a block is closed
// between its entry producer and its exit node — so the edges leaving it,
// which WidthOf skips for nodes outside its first argument, change nothing.
func (b *Block) Width() int { return WidthOf(b.Nodes, b.Nodes) }

// Partition splits the graph's schedulable nodes into blocks. maxBlockOps
// caps block size: if a natural block exceeds it (or 64, the bitset limit),
// Partition falls back to cutting at the cap, which preserves correctness
// (stages never span blocks anyway) at some loss of schedule optimality.
// Pass 0 to use the bitset limit.
//
// Per-block optimization is globally optimal only when every operator has
// a path to the network output (true for real CNNs): a dead-end operator
// stranded before a cut is forced to finish before later blocks start,
// whereas a global scheduler could overlap it with them. Correctness is
// unaffected either way.
func (g *Graph) Partition(maxBlockOps int) ([]*Block, error) {
	if maxBlockOps <= 0 || maxBlockOps > bitset.MaxElems {
		maxBlockOps = bitset.MaxElems
	}
	sched := g.SchedulableNodes()
	if len(sched) == 0 {
		return nil, nil
	}
	if len(g.cuts) > 0 {
		return g.partitionManual(sched, maxBlockOps)
	}
	pos := make([]int, len(g.Nodes)) // node ID -> position in sched (a consumer is never an input)
	for i, n := range sched {
		pos[n.ID] = i
	}

	// A boundary after position i is clean iff every edge crossing it
	// starts at position i itself (then everything later depends on the
	// earlier computation only through node i's single output tensor).
	n := len(sched)
	maxTo := make([]int, n) // max consumer position of node at position i
	for i, node := range sched {
		maxTo[i] = i
		for _, c := range node.Outputs() {
			maxTo[i] = max(maxTo[i], pos[c.ID])
		}
	}
	// Graph inputs count as producers at position -1: a network whose
	// input feeds several operators (e.g. the branches of Figure 2)
	// cannot be cut before all of them have appeared.
	furthestBefore := -1 // max consumer position over inputs and positions < i
	for _, node := range g.Nodes {
		if node.Op.Kind != OpInput {
			continue
		}
		for _, c := range node.Outputs() {
			furthestBefore = max(furthestBefore, pos[c.ID])
		}
	}
	cut := make([]bool, n) // cut after position i?
	for i := 0; i < n; i++ {
		// Edges from positions < i must not cross beyond i; edges from i
		// itself may (they all carry node i's single output tensor).
		if furthestBefore <= i {
			cut[i] = true
		}
		if maxTo[i] > furthestBefore {
			furthestBefore = maxTo[i]
		}
	}
	cut[n-1] = true

	var blocks []*Block
	start := 0
	flush := func(end int) { // [start, end] inclusive
		b := &Block{Index: len(blocks), Nodes: sched[start : end+1]}
		blocks = append(blocks, b)
		start = end + 1
	}
	for i := 0; i < n; i++ {
		if cut[i] || i-start+1 >= maxBlockOps {
			flush(i)
		}
	}

	if err := finishBlocks(g, blocks); err != nil {
		return nil, err
	}
	return blocks, nil
}

// partitionManual splits by the builder's CutBlock boundaries, further
// splitting any block that exceeds the size cap.
func (g *Graph) partitionManual(sched []*Node, maxBlockOps int) ([]*Block, error) {
	boundary := make(map[int]bool, len(g.cuts))
	for _, c := range g.cuts {
		boundary[c] = true // new block starts at node ID c
	}
	var blocks []*Block
	var cur []*Node
	flush := func() {
		if len(cur) > 0 {
			blocks = append(blocks, &Block{Index: len(blocks), Nodes: cur})
			cur = nil
		}
	}
	for _, n := range sched {
		if boundary[n.ID] || len(cur) >= maxBlockOps {
			flush()
		}
		cur = append(cur, n)
	}
	flush()
	if err := finishBlocks(g, blocks); err != nil {
		return nil, err
	}
	return blocks, nil
}

// finishBlocks validates block sizes and topological consistency across
// blocks, and builds the intra-block adjacency bitsets.
func finishBlocks(g *Graph, blocks []*Block) error {
	// at[id] places node id: its block and its block-local index. A graph
	// input is in no block; it reads as block 0, which no edge runs back to.
	type place struct{ block, local int32 }
	at := make([]place, len(g.Nodes))
	for _, b := range blocks {
		if len(b.Nodes) > bitset.MaxElems {
			return fmt.Errorf("graph %q: block %d has %d ops > %d", g.Name, b.Index, len(b.Nodes), bitset.MaxElems)
		}
		for i, n := range b.Nodes {
			at[n.ID] = place{int32(b.Index), int32(i)}
		}
	}
	adj := make([]bitset.Set, 2*len(g.Nodes)) // each block's succ, then its pred
	for _, b := range blocks {
		n := len(b.Nodes)
		b.succ, b.pred, adj = adj[:n:n], adj[n:2*n:2*n], adj[2*n:]
		for i, node := range b.Nodes {
			for _, in := range node.Inputs {
				if in.Op.Kind == OpInput {
					continue
				}
				if from := int(at[in.ID].block); from > b.Index {
					return fmt.Errorf("graph %q: edge %q->%q runs backwards across blocks %d->%d",
						g.Name, in.Name, node.Name, from, b.Index)
				}
			}
			for _, c := range node.Outputs() {
				if p := at[c.ID]; int(p.block) == b.Index {
					j := int(p.local)
					b.succ[i] = b.succ[i].Add(j)
					b.pred[j] = b.pred[j].Add(i)
				}
			}
		}
	}
	return nil
}
