package graph

import (
	"slices"
	"sync"
	"sync/atomic"
)

// CSR is a compressed-sparse-row adjacency: vertex u's outgoing (or, for a
// reverse CSR, incoming) half-edges occupy targets[starts[u]:ends[u]]. A
// freshly built CSR has its rows back to back, starts and ends aliasing one
// offsets array (ends[u] == starts[u+1]); a patched one (PatchRows) shares
// its predecessor's storage and leaves the slots of the rows it rewrote
// dead between them. A CSR is immutable after construction.
type CSR struct {
	n            int
	starts, ends []int32
	// targets and weights cover every slot this CSR can see: its rows and
	// the dead slots among them. The capacity past their length is the
	// tail, where the one successor that claims it writes its rows.
	targets []VertexID
	weights []Weight
	m       int // live half-edges
	// claimed is set by the PatchRows that writes into the tail; any later
	// patch off this CSR compacts instead.
	claimed atomic.Bool
}

// fromOffsets wraps back-to-back rows: u's row ends where u+1's starts.
func fromOffsets(n int, offsets []int32, targets []VertexID, weights []Weight) *CSR {
	return &CSR{n: n, starts: offsets[:n], ends: offsets[1:], targets: targets, weights: weights, m: len(targets)}
}

// NewCSR builds a forward CSR over n vertices from an edge list.
// The input need not be sorted; it is counting-sorted by source internally.
func NewCSR(n int, edges []Edge) *CSR {
	return buildCSR(n, edges, false)
}

// NewReverseCSR builds a reverse CSR (rows are destinations, entries are
// sources) over n vertices from an edge list.
func NewReverseCSR(n int, edges []Edge) *CSR {
	return buildCSR(n, edges, true)
}

func buildCSR(n int, edges []Edge, reverse bool) *CSR {
	offsets := make([]int32, n+1)
	targets := make([]VertexID, len(edges))
	weights := make([]Weight, len(edges))
	if !reverse && sortedBySrc(edges) {
		// Fast path: the input is already grouped by source (canonical
		// lists always are), so rows are contiguous — one linear pass.
		for i, e := range edges {
			offsets[e.Src+1] = int32(i + 1)
			targets[i] = e.Dst
			weights[i] = e.W
		}
		for i := 1; i <= n; i++ {
			if offsets[i] == 0 {
				offsets[i] = offsets[i-1]
			}
		}
		return fromOffsets(n, offsets, targets, weights)
	}
	row := func(e Edge) VertexID {
		if reverse {
			return e.Dst
		}
		return e.Src
	}
	col := func(e Edge) VertexID {
		if reverse {
			return e.Src
		}
		return e.Dst
	}
	for _, e := range edges {
		offsets[row(e)+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	cursor := make([]int32, n)
	for _, e := range edges {
		r := row(e)
		p := offsets[r] + cursor[r]
		cursor[r]++
		targets[p] = col(e)
		weights[p] = e.W
	}
	return fromOffsets(n, offsets, targets, weights)
}

// sortedBySrc reports whether edges are grouped in non-decreasing source
// order (canonical edge lists are).
func sortedBySrc(edges []Edge) bool {
	for i := 1; i < len(edges); i++ {
		if edges[i].Src < edges[i-1].Src {
			return false
		}
	}
	return true
}

// NewCSRParts builds a forward CSR over the union of several edge lists
// without materializing their concatenation: one counting pass over the
// parts, then a placement pass. The parts must be mutually disjoint.
func NewCSRParts(n int, parts ...[]Edge) *CSR {
	m := 0
	for _, p := range parts {
		m += len(p)
	}
	offsets := make([]int32, n+1)
	targets := make([]VertexID, m)
	weights := make([]Weight, m)
	for _, p := range parts {
		for _, e := range p {
			offsets[e.Src+1]++
		}
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	cursor := make([]int32, n)
	for _, p := range parts {
		for _, e := range p {
			pos := offsets[e.Src] + cursor[e.Src]
			cursor[e.Src]++
			targets[pos] = e.Dst
			weights[pos] = e.W
		}
	}
	return fromOffsets(n, offsets, targets, weights)
}

// NumVertices returns the number of vertices.
func (c *CSR) NumVertices() int { return c.n }

// NumEdges returns the number of stored half-edges.
func (c *CSR) NumEdges() int { return c.m }

// Degree returns the number of entries in vertex u's row.
func (c *CSR) Degree(u VertexID) int {
	return int(c.ends[u] - c.starts[u])
}

// Neighbors calls fn for each entry in u's row.
func (c *CSR) Neighbors(u VertexID, fn func(v VertexID, w Weight)) {
	for p := c.starts[u]; p < c.ends[u]; p++ {
		fn(c.targets[p], c.weights[p])
	}
}

// Row returns u's row as parallel slices (aliased, do not modify).
func (c *CSR) Row(u VertexID) ([]VertexID, []Weight) {
	lo, hi := c.starts[u], c.ends[u]
	return c.targets[lo:hi], c.weights[lo:hi]
}

// Lookup returns the weight of u's entry for v, by a binary search of u's
// row. The row must be sorted, as every row of a CSR built from a
// canonical list, or patched by PatchRows, is.
func (c *CSR) Lookup(u, v VertexID) (Weight, bool) {
	lo, hi := c.starts[u], c.ends[u]
	i, ok := slices.BinarySearch(c.targets[lo:hi], v)
	if !ok {
		return 0, false
	}
	return c.weights[int(lo)+i], true
}

// Rows is one out-adjacency layer in the flat form the engine walks:
// vertex u's half-edges occupy positions [Starts[u], Ends[u]) of Targets
// and Weights. A fresh CSR's rows are back to back (Ends[u] == Starts[u+1]);
// a patched CSR or a slack layout leaves room between them. The slices
// alias the layer and are read-only: a layer's rows never change while a
// pass holds them.
type Rows struct {
	Starts, Ends []int32
	Targets      []VertexID
	Weights      []Weight
}

// Rows returns the CSR as one flat layer, aliasing its arrays at no copy
// cost. They are read-only by the §4.1 immutability contract (enforced
// for the fields themselves by cgvet's csrimmutable analyzer).
func (c *CSR) Rows() Rows {
	return Rows{Starts: c.starts, Ends: c.ends, Targets: c.targets, Weights: c.weights}
}

// Edges reconstructs the edge list (forward orientation). For a reverse
// CSR the rows are destinations, so the caller should not use this.
func (c *CSR) Edges() EdgeList {
	out := make(EdgeList, 0, c.m)
	for u := 0; u < c.n; u++ {
		for p := c.starts[u]; p < c.ends[u]; p++ {
			out = append(out, Edge{Src: VertexID(u), Dst: c.targets[p], W: c.weights[p]})
		}
	}
	return out
}

// reverseOf builds the reverse orientation of a forward CSR (rows are
// destinations, entries are sources in ascending order) straight from its
// rows, without materializing the edge list in between.
func reverseOf(f *CSR) *CSR {
	offsets := make([]int32, f.n+1)
	targets := make([]VertexID, f.m)
	weights := make([]Weight, f.m)
	for u := 0; u < f.n; u++ {
		for _, v := range f.targets[f.starts[u]:f.ends[u]] {
			offsets[v+1]++
		}
	}
	for i := 0; i < f.n; i++ {
		offsets[i+1] += offsets[i]
	}
	cursor := make([]int32, f.n)
	for u := 0; u < f.n; u++ {
		for p := f.starts[u]; p < f.ends[u]; p++ {
			v := f.targets[p]
			q := offsets[v] + cursor[v]
			cursor[v]++
			targets[q] = VertexID(u)
			weights[q] = f.weights[p]
		}
	}
	return fromOffsets(f.n, offsets, targets, weights)
}

// Pair couples a forward and a reverse CSR over the same edge set; the
// engine needs out-edges for propagation and the trimming algorithm needs
// in-edges for recomputation. The reverse CSR is built on the first
// InEdges call: the addition-only CommonGraph paths never look at
// in-edges, so a common graph's pair never pays for one.
type Pair struct {
	Out *CSR

	inOnce sync.Once
	in     *CSR
}

// NewPair builds the forward orientation from one edge list; the reverse
// one follows on first use.
func NewPair(n int, edges []Edge) *Pair {
	return &Pair{Out: NewCSR(n, edges)}
}

// NumVertices returns the number of vertices.
func (p *Pair) NumVertices() int { return p.Out.NumVertices() }

// NumEdges returns the number of edges.
func (p *Pair) NumEdges() int { return p.Out.NumEdges() }

// OutRows returns the out-adjacency as flat layers: the one forward CSR.
func (p *Pair) OutRows() []Rows { return []Rows{p.Out.Rows()} }

// OutEdges calls fn for each out-neighbour of u.
func (p *Pair) OutEdges(u VertexID, fn func(v VertexID, w Weight)) {
	p.Out.Neighbors(u, fn)
}

// InEdges calls fn for each in-neighbour of v.
func (p *Pair) InEdges(v VertexID, fn func(u VertexID, w Weight)) {
	p.inOnce.Do(func() { p.in = reverseOf(p.Out) })
	p.in.Neighbors(v, fn)
}
