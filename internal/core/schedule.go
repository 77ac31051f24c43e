package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"commongraph/internal/delta"
	"commongraph/internal/graph"
)

// Schedule is an executable query evaluation plan: a tree of ScheduleNodes
// rooted at the common graph. Each edge carries the grid edges it spans;
// after compression (Algorithm 1's Compress-Steiner-Tree) an edge may span
// several grid edges whose addition batches are streamed as one merged
// batch.
type Schedule struct {
	Root *ScheduleNode
	// Cost is the total additions across all edges (each shared batch
	// counted once) — the schedule's work-sharing cost metric.
	Cost int64

	// tg is the grid the schedule was cut from; executable reads the
	// edges' label sets from it, once. ready is set under mu when every
	// edge's parts and stack are in place. star marks the Direct-Hop
	// schedule, which has no grid and whose walk derives the seed chain.
	tg    *TG
	mu    sync.Mutex
	ready bool
	star  bool
}

// ScheduleNode is a TG node used by the plan. Leaves (I == J) are the
// window's snapshots.
type ScheduleNode struct {
	I, J  int
	Edges []*ScheduleEdge
}

// IsLeaf reports whether the node is an original snapshot.
func (n *ScheduleNode) IsLeaf() bool { return n.I == n.J }

// ScheduleEdge is one streaming step of the plan.
type ScheduleEdge struct {
	To *ScheduleNode
	// Spans lists the grid edges whose labels this step streams (more
	// than one after bypassing; none on the star, which needs no grid).
	Spans []GridEdge
	// AddCount is the total label size across Spans.
	AddCount int64

	// Filled by Schedule.executable and immutable afterwards. parts are
	// the label sets of Spans, the batch this step streams. stack is the
	// overlay stack that presents the graph at To over the common base;
	// it stays nil when To is a leaf, whose graph is the base plus the
	// rep's own Direct-Hop overlay (Rep.LeafOverlay).
	parts [][]graph.Edge
	stack []*delta.Overlay
}

// NewSchedule converts a Steiner tree into an executable plan and applies
// the bypass compression: any intermediate node with exactly one incoming
// and one outgoing tree edge is elided, and its two batches merge into one
// larger batch (maximizing the parallelism of a single streaming step).
func NewSchedule(tg *TG, t *SteinerTree) (*Schedule, error) {
	if t.W == 1 {
		root := &ScheduleNode{I: 0, J: 0}
		return &Schedule{Root: root, tg: tg}, nil
	}
	if !t.SpansAllLeaves() {
		return nil, fmt.Errorf("core: steiner tree does not span all leaves")
	}
	// Build child lists and in-degrees over the tree's nodes.
	children := map[[2]int][]GridEdge{}
	indeg := map[[2]int]int{}
	for _, e := range t.Edges {
		from := [2]int{e.I, e.J}
		toI, toJ := e.To()
		children[from] = append(children[from], e)
		indeg[[2]int{toI, toJ}]++
	}

	nodes := map[[2]int]*ScheduleNode{}
	var build func(i, j int) *ScheduleNode
	build = func(i, j int) *ScheduleNode {
		key := [2]int{i, j}
		if n, ok := nodes[key]; ok {
			return n
		}
		n := &ScheduleNode{I: i, J: j}
		nodes[key] = n
		for _, ge := range children[key] {
			spans := []GridEdge{ge}
			ti, tj := ge.To()
			// Bypass chains: while the destination is a non-leaf with
			// exactly one incoming and one outgoing tree edge, absorb it.
			for {
				dkey := [2]int{ti, tj}
				if ti == tj || indeg[dkey] != 1 || len(children[dkey]) != 1 {
					break
				}
				next := children[dkey][0]
				spans = append(spans, next)
				ti, tj = next.To()
			}
			edge := &ScheduleEdge{To: build(ti, tj), Spans: spans}
			for _, s := range spans {
				edge.AddCount += tg.LabelSize(s)
			}
			n.Edges = append(n.Edges, edge)
		}
		sort.Slice(n.Edges, func(a, b int) bool {
			ea, eb := n.Edges[a].To, n.Edges[b].To
			if ea.I != eb.I {
				return ea.I < eb.I
			}
			return ea.J < eb.J
		})
		return n
	}
	root := build(0, t.W-1)
	return &Schedule{Root: root, Cost: t.Cost, tg: tg}, nil
}

// maxOverlayDepth bounds the Work-Sharing overlay stack: deeper stacks
// slow every adjacency visit, so the batches accumulated from the root
// consolidate into one overlay past this depth (amortizing the
// O(V + |Δ|) rebuild).
const maxOverlayDepth = 64

// executable materializes, on first call, what executing the schedule
// needs beyond its shape: the label set of every grid edge the plan uses
// (one pass over the TG's runs) and, per schedule edge, the overlay stack
// of the batches accumulated from the root. Each edge adds one small
// overlay (O(V + |batch|)) to its parent's stack, so adjacency iteration
// stays flat without rebuilding the whole accumulated set at every level;
// the composed set is still "the set of additional edges the snapshot
// includes" (§4.1). All of it is a pure function of the window, so every
// evaluation of the schedule shares it.
//
// Callers read the edges only after executable returns, and it returns
// only with ready set. A build that panics part-way leaves ready unset,
// so the next call builds again from the start rather than executing a
// half-filled schedule (a sync.Once would count the panic as done).
func (s *Schedule) executable() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ready {
		return
	}
	labels := s.tg.Labels(s.GridEdges())
	var walk func(n *ScheduleNode, stack []*delta.Overlay, acc []graph.EdgeList)
	walk = func(n *ScheduleNode, stack []*delta.Overlay, acc []graph.EdgeList) {
		for _, e := range n.Edges {
			spans := make([]graph.EdgeList, len(e.Spans))
			for i, span := range e.Spans {
				// Bypassed nodes contribute their batches here; the
				// labels are disjoint by construction.
				spans[i] = labels[span]
			}
			e.parts = edgeParts(spans)
			if e.To.IsLeaf() {
				continue
			}
			childAcc := slices.Concat(acc, spans)
			e.stack = slices.Concat(stack, []*delta.Overlay{delta.NewOverlayParts(s.tg.n, spans...)})
			if len(e.stack) > maxOverlayDepth {
				e.stack = []*delta.Overlay{delta.NewOverlayParts(s.tg.n, childAcc...)}
			}
			// Clipped: an OverlayGraph built on the shared stack must
			// reallocate if anything is ever pushed onto it.
			e.stack = slices.Clip(e.stack)
			walk(e.To, e.stack, childAcc)
		}
	}
	walk(s.Root, nil, nil)
	s.ready = true
}

// edgeParts converts a slice of EdgeLists to the engine's parts shape.
func edgeParts(lists []graph.EdgeList) [][]graph.Edge {
	out := make([][]graph.Edge, len(lists))
	for i, l := range lists {
		out[i] = l
	}
	return out
}

// starSchedule builds the §3.1 plan over a window's deltas: the root
// fans out straight to every leaf, and edge k streams Δ_ck = deltas[k]
// whole. It needs no grid, so it is executable as built.
func starSchedule(deltas []*delta.Batch) *Schedule {
	w := len(deltas)
	s := &Schedule{Root: &ScheduleNode{I: 0, J: w - 1}, star: true, ready: true}
	if w == 1 {
		return s
	}
	s.Root.Edges = make([]*ScheduleEdge, w)
	for k, d := range deltas {
		e := &ScheduleEdge{To: &ScheduleNode{I: k, J: k}, AddCount: int64(d.Len()), parts: [][]graph.Edge{d.Edges()}}
		s.Cost += e.AddCount
		s.Root.Edges[k] = e
	}
	return s
}

// Leaves returns the schedule's leaf nodes in snapshot order.
func (s *Schedule) Leaves() []*ScheduleNode {
	var out []*ScheduleNode
	var walk func(n *ScheduleNode)
	walk = func(n *ScheduleNode) {
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		for _, e := range n.Edges {
			walk(e.To)
		}
	}
	walk(s.Root)
	sort.Slice(out, func(a, b int) bool { return out[a].I < out[b].I })
	return out
}

// Depth returns the most schedule edges between the root and a leaf: how
// many streaming steps, and non-leaf overlays, the deepest snapshot is under.
func (s *Schedule) Depth() int { return s.Root.depth() }

func (n *ScheduleNode) depth() int {
	d := 0
	for _, e := range n.Edges {
		d = max(d, 1+e.To.depth())
	}
	return d
}

// GridEdges returns every grid edge any schedule edge spans.
func (s *Schedule) GridEdges() []GridEdge {
	var out []GridEdge
	var walk func(n *ScheduleNode)
	walk = func(n *ScheduleNode) {
		for _, e := range n.Edges {
			out = append(out, e.Spans...)
			walk(e.To)
		}
	}
	walk(s.Root)
	return out
}

// String renders the plan as an indented tree, for logs and examples.
func (s *Schedule) String() string {
	var b strings.Builder
	var walk func(n *ScheduleNode, depth int)
	walk = func(n *ScheduleNode, depth int) {
		fmt.Fprintf(&b, "%s[%d,%d]\n", strings.Repeat("  ", depth), n.I, n.J)
		for _, e := range n.Edges {
			fmt.Fprintf(&b, "%s+%d additions ->\n", strings.Repeat("  ", depth+1), e.AddCount)
			walk(e.To, depth+1)
		}
	}
	walk(s.Root, 0)
	return b.String()
}
