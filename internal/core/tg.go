package core

import (
	"fmt"
	"sort"

	"commongraph/internal/graph"
)

// The Triangular Grid (TG) of a window of w snapshots has one node per
// interval [i,j] (0 ≤ i ≤ j < w): node [i,j] is the intermediate common
// graph C[i,j] = E_i ∩ … ∩ E_j. Leaves are the original snapshots
// C[k,k] = E_k; the root is the full common graph C[0,w-1] = E_c.
//
// Each node has two outgoing edges, both labelled with additions only:
//
//	left:  [i,j] → [i,j-1], label C[i,j-1] \ C[i,j]
//	right: [i,j] → [i+1,j], label C[i+1,j] \ C[i,j]
//
// Materializing every C[i,j] would need O(w²·|E|) space, so the TG is
// built from the presence runs of the edges touched by the window's
// batches: an edge present exactly during snapshots [a,b] (a maximal run)
// belongs to label left[i][b+1] for every i ∈ [a,b] (common to i..b,
// absent at b+1) and to label right[a-1][j] for every j ∈ [a,b] (absent at
// a-1, common to a..j). Edges never absent inside the window are in the
// root and appear in no label. This yields exact label sizes for
// scheduling, and exact label sets on demand for execution.

// GridEdge identifies one TG edge by its source node [I,J] and direction.
type GridEdge struct {
	I, J int
	Left bool // true: [I,J]→[I,J-1]; false: [I,J]→[I+1,J]
}

// From returns the source node interval.
func (e GridEdge) From() (int, int) { return e.I, e.J }

// To returns the destination node interval.
func (e GridEdge) To() (int, int) {
	if e.Left {
		return e.I, e.J - 1
	}
	return e.I + 1, e.J
}

// String renders the edge as "[i,j]->[i',j']".
func (e GridEdge) String() string {
	ti, tj := e.To()
	return fmt.Sprintf("[%d,%d]->[%d,%d]", e.I, e.J, ti, tj)
}

// run records one maximal presence interval of an edge within the window:
// the edge exists in snapshots a..b (window-relative) and is absent just
// outside (or the window ends).
type run struct {
	key  graph.EdgeKey
	w    graph.Weight
	a, b int
}

// TG is the Triangular Grid of a window: label sizes for every grid edge
// plus the presence runs needed to materialize label sets on demand.
type TG struct {
	W    int
	n    int // vertex-space size of the window's store
	runs []run
	// sizeLeft[i][j] = |label of [i,j]→[i,j-1]|, 0 ≤ i < j < W.
	// sizeRight[i][j] = |label of [i,j]→[i+1,j]|.
	sizeLeft  [][]int64
	sizeRight [][]int64
}

// BuildTG computes the Triangular Grid of the window. O(total batch edges
// × window width) time, O(total batch edges) space.
func BuildTG(w Window) (*TG, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	width := w.Width()
	tg := &TG{W: width, n: w.Store.NumVertices()}

	// Track presence runs of every edge touched by a batch. An edge first
	// seen in a deletion batch was present since the window start.
	type open struct {
		start int
		w     graph.Weight
	}
	opens := make(map[graph.EdgeKey]open)
	closed := make(map[graph.EdgeKey]bool) // touched but currently absent
	for t := 0; t < width-1; t++ {
		for _, e := range w.deletions(t) {
			k := e.Key()
			o, tracked := opens[k]
			if !tracked {
				if closed[k] {
					return nil, fmt.Errorf("core: deletion of absent edge %v at transition %d", e, t)
				}
				o = open{start: 0, w: e.W}
			}
			tg.runs = append(tg.runs, run{key: k, w: o.w, a: o.start, b: t})
			delete(opens, k)
			closed[k] = true
		}
		for _, e := range w.additions(t) {
			k := e.Key()
			if _, tracked := opens[k]; tracked {
				return nil, fmt.Errorf("core: addition of present edge %v at transition %d", e, t)
			}
			opens[k] = open{start: t + 1, w: e.W}
			delete(closed, k)
		}
	}
	for k, o := range opens {
		tg.runs = append(tg.runs, run{key: k, w: o.w, a: o.start, b: width - 1})
	}
	// Keep runs key-ordered so Labels emits each label already canonical
	// (a key appears at most once per label; see Labels).
	sort.Slice(tg.runs, func(i, j int) bool { return tg.runs[i].key < tg.runs[j].key })

	// Label sizes via difference arrays over the run ranges.
	tg.sizeLeft = make([][]int64, width)
	tg.sizeRight = make([][]int64, width)
	for i := 0; i < width; i++ {
		tg.sizeLeft[i] = make([]int64, width)
		tg.sizeRight[i] = make([]int64, width)
	}
	// diffLeft[j] accumulates over i; left labels live at column j = b+1.
	for _, r := range tg.runs {
		if r.b+1 < width {
			// e ∈ left[i][r.b+1] for i ∈ [r.a, r.b]
			for i := r.a; i <= r.b; i++ {
				tg.sizeLeft[i][r.b+1]++
			}
		}
		if r.a > 0 {
			// e ∈ right[r.a-1][j] for j ∈ [r.a, r.b]
			for j := r.a; j <= r.b; j++ {
				tg.sizeRight[r.a-1][j]++
			}
		}
	}
	return tg, nil
}

// LabelSize returns the number of additions on a grid edge.
func (tg *TG) LabelSize(e GridEdge) int64 {
	if e.Left {
		return tg.sizeLeft[e.I][e.J]
	}
	return tg.sizeRight[e.I][e.J]
}

// rootDistances returns, indexed a*W+b for a ≤ b, what any path from the
// root to node [a,b] streams: every label is C[to] \ C[from] with
// C[from] ⊆ C[to], so label sizes telescope to |C[a,b]| − |E_c| whichever
// way the path zigzags. The table fills from the root outwards off either
// parent.
func (tg *TG) rootDistances() []int64 {
	w := tg.W
	size := make([]int64, w*w)
	for n := w - 2; n >= 0; n-- {
		for a := 0; a+n < w; a++ {
			b := a + n
			if b+1 < w {
				size[a*w+b] = size[a*w+b+1] + tg.sizeLeft[a][b+1]
			} else {
				size[a*w+b] = size[(a-1)*w+b] + tg.sizeRight[a-1][b]
			}
		}
	}
	return size
}

// NumNodes returns the node count of the grid: w(w+1)/2.
func (tg *TG) NumNodes() int { return tg.W * (tg.W + 1) / 2 }

// Labels materializes the edge sets of the requested grid edges in one
// pass over the runs. The returned lists are canonical: runs are kept in
// key order and any key contributes at most once to a given label (runs of
// one edge are disjoint maximal intervals, so they map to distinct labels).
func (tg *TG) Labels(edges []GridEdge) map[GridEdge]graph.EdgeList {
	out := make(map[GridEdge]graph.EdgeList, len(edges))
	// Dense (i, j) → slice-index lookup; -1 means not requested.
	wantLeft := make([]int32, tg.W*tg.W)
	wantRight := make([]int32, tg.W*tg.W)
	for i := range wantLeft {
		wantLeft[i] = -1
		wantRight[i] = -1
	}
	lists := make([]graph.EdgeList, len(edges))
	for idx, e := range edges {
		out[e] = nil
		lists[idx] = make(graph.EdgeList, 0, tg.LabelSize(e))
		if e.Left {
			wantLeft[e.I*tg.W+e.J] = int32(idx)
		} else {
			wantRight[e.I*tg.W+e.J] = int32(idx)
		}
	}
	for _, r := range tg.runs {
		edge := graph.Edge{Src: r.key.Src(), Dst: r.key.Dst(), W: r.w}
		if r.b+1 < tg.W {
			col := r.b + 1
			for i := r.a; i <= r.b; i++ {
				if idx := wantLeft[i*tg.W+col]; idx >= 0 {
					lists[idx] = append(lists[idx], edge)
				}
			}
		}
		if r.a > 0 {
			row := (r.a - 1) * tg.W
			for j := r.a; j <= r.b; j++ {
				if idx := wantRight[row+j]; idx >= 0 {
					lists[idx] = append(lists[idx], edge)
				}
			}
		}
	}
	for idx, e := range edges {
		out[e] = lists[idx]
	}
	return out
}

// StarCost is what the Direct-Hop star streams, Σ_k |Δ_ck|: every leaf's
// root distance.
func (tg *TG) StarCost() int64 {
	dist := tg.rootDistances()
	var c int64
	for k := 0; k < tg.W; k++ {
		c += dist[k*tg.W+k]
	}
	return c
}

// PathCost sums label sizes along a root-to-leaf path expressed as grid
// edges.
func (tg *TG) PathCost(path []GridEdge) int64 {
	var c int64
	for _, e := range path {
		c += tg.LabelSize(e)
	}
	return c
}
