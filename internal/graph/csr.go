package graph

import "sync"

// CSR is a compressed-sparse-row adjacency: for vertex u, its outgoing
// (or, for a reverse CSR, incoming) half-edges occupy
// targets[offsets[u]:offsets[u+1]]. A CSR is immutable after construction.
type CSR struct {
	n       int
	offsets []int32
	targets []VertexID
	weights []Weight
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
	c := &CSR{
		n:       n,
		offsets: make([]int32, n+1),
		targets: make([]VertexID, len(edges)),
		weights: make([]Weight, len(edges)),
	}
	if !reverse && sortedBySrc(edges) {
		// Fast path: the input is already grouped by source (canonical
		// lists always are), so rows are contiguous — one linear pass.
		for i, e := range edges {
			c.offsets[e.Src+1] = int32(i + 1)
			c.targets[i] = e.Dst
			c.weights[i] = e.W
		}
		for i := 1; i <= n; i++ {
			if c.offsets[i] == 0 {
				c.offsets[i] = c.offsets[i-1]
			}
		}
		return c
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
		c.offsets[row(e)+1]++
	}
	for i := 0; i < n; i++ {
		c.offsets[i+1] += c.offsets[i]
	}
	cursor := make([]int32, n)
	for _, e := range edges {
		r := row(e)
		p := c.offsets[r] + cursor[r]
		cursor[r]++
		c.targets[p] = col(e)
		c.weights[p] = e.W
	}
	return c
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
	c := &CSR{
		n:       n,
		offsets: make([]int32, n+1),
		targets: make([]VertexID, m),
		weights: make([]Weight, m),
	}
	for _, p := range parts {
		for _, e := range p {
			c.offsets[e.Src+1]++
		}
	}
	for i := 0; i < n; i++ {
		c.offsets[i+1] += c.offsets[i]
	}
	cursor := make([]int32, n)
	for _, p := range parts {
		for _, e := range p {
			pos := c.offsets[e.Src] + cursor[e.Src]
			cursor[e.Src]++
			c.targets[pos] = e.Dst
			c.weights[pos] = e.W
		}
	}
	return c
}

// NumVertices returns the number of vertices.
func (c *CSR) NumVertices() int { return c.n }

// NumEdges returns the number of stored half-edges.
func (c *CSR) NumEdges() int { return len(c.targets) }

// Degree returns the number of entries in vertex u's row.
func (c *CSR) Degree(u VertexID) int {
	return int(c.offsets[u+1] - c.offsets[u])
}

// Neighbors calls fn for each entry in u's row.
func (c *CSR) Neighbors(u VertexID, fn func(v VertexID, w Weight)) {
	for p := c.offsets[u]; p < c.offsets[u+1]; p++ {
		fn(c.targets[p], c.weights[p])
	}
}

// Row returns u's row as parallel slices (aliased, do not modify).
func (c *CSR) Row(u VertexID) ([]VertexID, []Weight) {
	lo, hi := c.offsets[u], c.offsets[u+1]
	return c.targets[lo:hi], c.weights[lo:hi]
}

// Offsets, Targets and Weights expose the CSR's backing arrays for flat
// traversal: vertex u's half-edges occupy positions
// [Offsets()[u], Offsets()[u+1]) of Targets() and Weights(). The slices
// alias the CSR — they are read-only by the §4.1 immutability contract
// (enforced for the fields themselves by cgvet's csrimmutable analyzer);
// callers must never write through them. The engine's hot loops index
// these directly instead of paying a closure call per edge (Neighbors).
func (c *CSR) Offsets() []int32 { return c.offsets }

// Targets returns the neighbor array (see Offsets).
func (c *CSR) Targets() []VertexID { return c.targets }

// Weights returns the weight array (see Offsets).
func (c *CSR) Weights() []Weight { return c.weights }

// Edges reconstructs the edge list (forward orientation). For a reverse
// CSR the rows are destinations, so the caller should not use this.
func (c *CSR) Edges() EdgeList {
	out := make(EdgeList, 0, len(c.targets))
	for u := 0; u < c.n; u++ {
		for p := c.offsets[u]; p < c.offsets[u+1]; p++ {
			out = append(out, Edge{Src: VertexID(u), Dst: c.targets[p], W: c.weights[p]})
		}
	}
	return out
}

// reverseOf builds the reverse orientation of a forward CSR (rows are
// destinations, entries are sources in ascending order) straight from its
// rows, without materializing the edge list in between.
func reverseOf(f *CSR) *CSR {
	c := &CSR{
		n:       f.n,
		offsets: make([]int32, f.n+1),
		targets: make([]VertexID, len(f.targets)),
		weights: make([]Weight, len(f.targets)),
	}
	for _, v := range f.targets {
		c.offsets[v+1]++
	}
	for i := 0; i < f.n; i++ {
		c.offsets[i+1] += c.offsets[i]
	}
	cursor := make([]int32, f.n)
	for u := 0; u < f.n; u++ {
		for p := f.offsets[u]; p < f.offsets[u+1]; p++ {
			v := f.targets[p]
			q := c.offsets[v] + cursor[v]
			cursor[v]++
			c.targets[q] = VertexID(u)
			c.weights[q] = f.weights[p]
		}
	}
	return c
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

// PatchPair returns Patch(base, remove, add) together with its traversal
// pair, both written in the one pass that emits the list: a big canonical
// list that changes by a few edges gets its successor and that successor's
// forward CSR without being scanned a second time.
func PatchPair(n int, base, remove, add EdgeList) (EdgeList, *Pair) {
	size := len(base) + len(add)
	out := make(EdgeList, 0, size)
	c := &CSR{
		n:       n,
		offsets: make([]int32, n+1),
		targets: make([]VertexID, 0, size),
		weights: make([]Weight, 0, size),
	}
	splice(base, remove, add, func(run EdgeList) {
		at := len(out)
		out = append(out, run...)
		c.targets, c.weights = c.targets[:len(out)], c.weights[:len(out)]
		targets, weights := c.targets[at:], c.weights[at:]
		for i, e := range run {
			targets[i], weights[i] = e.Dst, e.W
			c.offsets[e.Src+1] = int32(at + i + 1)
		}
	})
	// Rows are contiguous in a canonical list: a row's end was recorded by
	// its last edge, an empty row ends where the row before it did.
	for i := 1; i <= n; i++ {
		if c.offsets[i] == 0 {
			c.offsets[i] = c.offsets[i-1]
		}
	}
	return out, &Pair{Out: c}
}

// NumVertices returns the number of vertices.
func (p *Pair) NumVertices() int { return p.Out.NumVertices() }

// NumEdges returns the number of edges.
func (p *Pair) NumEdges() int { return p.Out.NumEdges() }

// OutCSRs returns the out-adjacency as immutable CSR layers (a single
// layer for a plain pair) — the flat-traversal hook the engine probes for
// via delta.FlatSource.
func (p *Pair) OutCSRs() []*CSR { return []*CSR{p.Out} }

// OutEdges calls fn for each out-neighbour of u.
func (p *Pair) OutEdges(u VertexID, fn func(v VertexID, w Weight)) {
	p.Out.Neighbors(u, fn)
}

// InEdges calls fn for each in-neighbour of v.
func (p *Pair) InEdges(v VertexID, fn func(u VertexID, w Weight)) {
	p.inOnce.Do(func() { p.in = reverseOf(p.Out) })
	p.in.Neighbors(v, fn)
}
