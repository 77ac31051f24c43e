package delta

import (
	"sync"

	"commongraph/internal/graph"
)

// Overlay is an addition batch prepared for traversal. The forward CSR is
// built eagerly (it is what incremental addition propagates over); the
// reverse CSR is built lazily on first use, because the addition-only
// CommonGraph paths never look at in-edges — only deletion trimming does.
// Building one costs O(|Δ| + V); this is the "load the batch" operation
// that replaces graph mutation in the paper's representation.
type Overlay struct {
	n      int
	m      int
	parts  [][]graph.Edge
	out    *graph.CSR
	inOnce sync.Once
	in     *graph.CSR
}

// NewOverlay indexes a batch for traversal over a graph with n vertices.
func NewOverlay(n int, b *Batch) *Overlay {
	return &Overlay{
		n:     n,
		m:     b.Len(),
		parts: [][]graph.Edge{b.Edges()},
		out:   graph.NewCSR(n, b.Edges()),
	}
}

// NewOverlayParts indexes the union of several mutually disjoint canonical
// edge lists as one overlay, without merging or concatenating them first —
// the CSR builder only needs grouping, which its counting pass provides.
// The Work-Sharing evaluator uses this to compose the batches accumulated
// along a schedule path in O(V + |Δ|).
func NewOverlayParts(n int, parts ...graph.EdgeList) *Overlay {
	lists := make([][]graph.Edge, len(parts))
	m := 0
	for i, p := range parts {
		lists[i] = p
		m += len(p)
	}
	return &Overlay{n: n, m: m, parts: lists, out: graph.NewCSRParts(n, lists...)}
}

// Len returns the number of edges in the overlay.
func (o *Overlay) Len() int { return o.m }

// Edges returns the overlay's edges as a fresh concatenation (unspecified
// order).
func (o *Overlay) Edges() graph.EdgeList {
	out := make(graph.EdgeList, 0, o.m)
	for _, p := range o.parts {
		out = append(out, p...)
	}
	return out
}

// reverse lazily builds the in-edge CSR; only deletion trimming and tests
// look at in-edges, so the addition-only paths never pay for it.
func (o *Overlay) reverse() *graph.CSR {
	o.inOnce.Do(func() { o.in = graph.NewReverseCSR(o.n, o.Edges()) })
	return o.in
}

// Graph is the adjacency view the execution engine traverses. OutRows is
// the one traversal the engine's passes use: u's out-edges are the union
// of its rows across the returned layers, walked as flat slices (one
// bounds-checked slice walk per row, no call per edge). The layers alias
// live storage and are read-only; they must not change while a pass
// holds them. InEdges serves the trimming recomputation, and OutEdges the
// Reference oracle and tests.
type Graph interface {
	NumVertices() int
	NumEdges() int
	OutRows() []graph.Rows
	OutEdges(u graph.VertexID, fn func(v graph.VertexID, w graph.Weight))
	InEdges(v graph.VertexID, fn func(u graph.VertexID, w graph.Weight))
}

// OverlayGraph presents base + overlays as one logical graph. The base is
// never modified; pushing and popping overlays is how the CommonGraph
// system "moves" between Triangular Grid nodes.
//
// OverlayGraph is not safe for concurrent mutation (Push/Pop), but is safe
// for concurrent traversal once constructed.
type OverlayGraph struct {
	base     *graph.Pair
	overlays []*Overlay
}

// NewOverlayGraph wraps a base graph with zero or more overlays.
func NewOverlayGraph(base *graph.Pair, overlays ...*Overlay) *OverlayGraph {
	return &OverlayGraph{base: base, overlays: overlays}
}

// Push adds an overlay on top of the current view.
func (g *OverlayGraph) Push(o *Overlay) { g.overlays = append(g.overlays, o) }

// Pop removes the most recently pushed overlay.
func (g *OverlayGraph) Pop() {
	g.overlays = g.overlays[:len(g.overlays)-1]
}

// Depth returns the number of overlays currently applied.
func (g *OverlayGraph) Depth() int { return len(g.overlays) }

// Base returns the underlying immutable base pair.
func (g *OverlayGraph) Base() *graph.Pair { return g.base }

// NumVertices returns the vertex count of the base graph.
func (g *OverlayGraph) NumVertices() int { return g.base.NumVertices() }

// NumEdges returns base edges plus all overlay edges.
func (g *OverlayGraph) NumEdges() int {
	m := g.base.NumEdges()
	for _, o := range g.overlays {
		m += o.Len()
	}
	return m
}

// OutRows returns the view's out-adjacency layers, base first, then each
// overlay in push order. The slice is freshly allocated (the overlay
// stack may be pushed/popped between traversals) but the layers alias the
// live CSRs.
func (g *OverlayGraph) OutRows() []graph.Rows {
	layers := make([]graph.Rows, 0, 1+len(g.overlays))
	layers = append(layers, g.base.Out.Rows())
	for _, o := range g.overlays {
		layers = append(layers, o.out.Rows())
	}
	return layers
}

// OutEdges visits u's out-neighbours in the base and every overlay.
func (g *OverlayGraph) OutEdges(u graph.VertexID, fn func(v graph.VertexID, w graph.Weight)) {
	g.base.OutEdges(u, fn)
	for _, o := range g.overlays {
		o.out.Neighbors(u, fn)
	}
}

// InEdges visits v's in-neighbours in the base and every overlay.
func (g *OverlayGraph) InEdges(v graph.VertexID, fn func(u graph.VertexID, w graph.Weight)) {
	g.base.InEdges(v, fn)
	for _, o := range g.overlays {
		o.reverse().Neighbors(v, fn)
	}
}

// Edges materializes the logical edge list (canonical).
func (g *OverlayGraph) Edges() graph.EdgeList {
	out := g.base.Out.Edges()
	for _, o := range g.overlays {
		out = append(out, o.Edges()...)
	}
	return out.Canonicalize()
}

var _ Graph = (*OverlayGraph)(nil)
var _ Graph = (*graph.Pair)(nil)
