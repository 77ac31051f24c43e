// Package kickstarter reconstructs the KickStarter streaming baseline
// (Vora et al., ASPLOS '17) that the paper compares against: a single
// mutable graph version plus a trimmed-approximation incremental engine.
// Additions propagate improvements directly; deletions invalidate the
// dependence subtree of every vertex whose justifying edge died, reset it,
// and re-propagate. The graph itself is mutated in place — the cost the
// CommonGraph representation eliminates.
package kickstarter

import (
	"fmt"
	"slices"

	"commongraph/internal/delta"
	"commongraph/internal/graph"
)

type half struct {
	to graph.VertexID
	w  graph.Weight
}

// MutableGraph is an in-place mutable adjacency. Additions append
// (amortized O(1) per edge); deletions search the row and shift the rest
// left (O(degree) per edge) — the classic adjacency-mutation asymmetry the
// paper measures in Figure 1 (bottom).
//
// The out-rows live in one slack array, which the engine walks as a
// single flat layer: u's row is tgts/wts[start[u]:end[u]], with room to
// grow up to limit[u]. A full row moves to the array's tail with twice the
// capacity, abandoning its old slots; an addition batch that leaves more
// holes than live edges compacts the array. Rows change only between
// engine passes — mutation and propagation alternate in ApplyTransition —
// so a pass never sees a row move. The in-rows, which only trimming
// reads, are per-vertex lists.
type MutableGraph struct {
	n     int
	m     int
	start []int32
	end   []int32
	limit []int32
	tgts  []graph.VertexID
	wts   []graph.Weight
	holes int // abandoned slots: old copies of relocated rows
	in    [][]half
}

// minRowCap is the capacity a row gets when it first outgrows zero.
const minRowCap = 4

// NewMutableGraph builds a mutable graph over n vertices from initial.
// Rows are laid out in vertex order, each with a quarter of its degree
// free, so most additions land in place.
func NewMutableGraph(n int, initial graph.EdgeList) *MutableGraph {
	g := &MutableGraph{
		n:     n,
		start: make([]int32, n),
		end:   make([]int32, n),
		limit: make([]int32, n),
		in:    make([][]half, n),
	}
	inDeg := make([]int32, n)
	for _, e := range initial {
		g.limit[e.Src]++
		inDeg[e.Dst]++
	}
	off := int32(0)
	for v := 0; v < n; v++ {
		g.start[v], g.end[v] = off, off
		off += g.limit[v] + g.limit[v]/4
		g.limit[v] = off
		if inDeg[v] > 0 {
			g.in[v] = make([]half, 0, inDeg[v])
		}
	}
	g.tgts, g.wts = slackArrays(int(off))
	g.AddBatch(initial)
	return g
}

// NumVertices returns the vertex count.
func (g *MutableGraph) NumVertices() int { return g.n }

// NumEdges returns the current edge count.
func (g *MutableGraph) NumEdges() int { return g.m }

// OutRows exposes the slack array as one flat layer.
func (g *MutableGraph) OutRows() []graph.Rows {
	return []graph.Rows{{Starts: g.start, Ends: g.end, Targets: g.tgts, Weights: g.wts}}
}

// OutEdges visits u's current out-neighbours.
func (g *MutableGraph) OutEdges(u graph.VertexID, fn func(v graph.VertexID, w graph.Weight)) {
	for p := g.start[u]; p < g.end[u]; p++ {
		fn(g.tgts[p], g.wts[p])
	}
}

// InEdges visits v's current in-neighbours.
func (g *MutableGraph) InEdges(v graph.VertexID, fn func(u graph.VertexID, w graph.Weight)) {
	for _, h := range g.in[v] {
		fn(h.to, h.w)
	}
}

// AddBatch mutates the graph to include the batch (graph mutation,
// addition side). Duplicate edges must not be added; the snapshot store
// and generators uphold this.
func (g *MutableGraph) AddBatch(batch graph.EdgeList) {
	for _, e := range batch {
		u := e.Src
		if g.end[u] == g.limit[u] {
			g.relocate(u)
		}
		g.tgts[g.end[u]], g.wts[g.end[u]] = e.Dst, e.W
		g.end[u]++
		g.in[e.Dst] = append(g.in[e.Dst], half{to: e.Src, w: e.W})
		g.m++
	}
	if g.holes > g.m {
		g.compact()
	}
}

// relocate moves u's full row to the array's tail with twice its
// capacity; its old slots become holes.
func (g *MutableGraph) relocate(u graph.VertexID) {
	lo, hi := g.start[u], g.end[u]
	c := 2 * int(g.limit[u]-lo)
	if c < minRowCap {
		c = minRowCap
	}
	at := len(g.tgts)
	if at+c > cap(g.tgts) {
		// Doubling the array keeps its growth amortized O(1) per slot.
		g.tgts = slices.Grow(g.tgts, at+c)
		g.wts = slices.Grow(g.wts, at+c)
	}
	g.tgts, g.wts = g.tgts[:at+c], g.wts[:at+c]
	copy(g.tgts[at:], g.tgts[lo:hi])
	copy(g.wts[at:], g.wts[lo:hi])
	g.holes += int(g.limit[u] - lo)
	g.start[u], g.end[u], g.limit[u] = int32(at), int32(at)+hi-lo, int32(at+c)
}

// slackArrays allocates the array's two halves at size slots with an
// eighth more free at the tail, so the relocations that follow a build or
// a compaction fill reserved room instead of first copying the array.
func slackArrays(size int) ([]graph.VertexID, []graph.Weight) {
	c := size + size/8
	return make([]graph.VertexID, size, c), make([]graph.Weight, size, c)
}

// compact lays the rows out again in vertex order, each keeping its
// capacity, and drops the holes.
func (g *MutableGraph) compact() {
	tgts, wts := slackArrays(len(g.tgts) - g.holes)
	off := int32(0)
	for v := 0; v < g.n; v++ {
		lo, hi := g.start[v], g.end[v]
		copy(tgts[off:], g.tgts[lo:hi])
		copy(wts[off:], g.wts[lo:hi])
		g.start[v], g.end[v] = off, off+hi-lo
		off += g.limit[v] - lo
		g.limit[v] = off
	}
	g.tgts, g.wts, g.holes = tgts, wts, 0
}

// DeleteBatch mutates the graph to remove the batch (graph mutation,
// deletion side). It returns an error if an edge is not present.
func (g *MutableGraph) DeleteBatch(batch graph.EdgeList) error {
	for _, e := range batch {
		if !g.removeOut(e.Src, e.Dst) {
			return fmt.Errorf("kickstarter: delete of absent edge %v", e)
		}
		if !removeHalf(&g.in[e.Dst], e.Src) {
			return fmt.Errorf("kickstarter: in-list missing edge %v", e)
		}
		g.m--
	}
	return nil
}

// removeOut deletes u's entry for `to`, preserving row order: like CSR
// compaction, every later entry shifts left, so deletion costs O(degree)
// in both the search and the move — the asymmetry of Figure 1 (bottom).
// The freed slot stays in the row as room to grow.
func (g *MutableGraph) removeOut(u, to graph.VertexID) bool {
	lo, hi := g.start[u], g.end[u]
	for p := lo; p < hi; p++ {
		if g.tgts[p] == to {
			copy(g.tgts[p:hi], g.tgts[p+1:hi])
			copy(g.wts[p:hi], g.wts[p+1:hi])
			g.end[u]--
			return true
		}
	}
	return false
}

// removeHalf deletes the in-list entry for `to`, preserving row order.
func removeHalf(row *[]half, to graph.VertexID) bool {
	s := *row
	for i := range s {
		if s[i].to == to {
			copy(s[i:], s[i+1:])
			*row = s[:len(s)-1]
			return true
		}
	}
	return false
}

// Edges materializes the current edge list (canonical); test support.
func (g *MutableGraph) Edges() graph.EdgeList {
	out := make(graph.EdgeList, 0, g.m)
	for u := 0; u < g.n; u++ {
		for p := g.start[u]; p < g.end[u]; p++ {
			out = append(out, graph.Edge{Src: graph.VertexID(u), Dst: g.tgts[p], W: g.wts[p]})
		}
	}
	return out.Canonicalize()
}

var _ delta.Graph = (*MutableGraph)(nil)
