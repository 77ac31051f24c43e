package core

import (
	"cmp"
	"math"
	"slices"
)

// The query evaluation schedule is a tree in the TG rooted at the common
// graph [0,w-1] and spanning every leaf [k,k]; its cost is the sum of
// label sizes of the tree's grid edges (each shared edge counted once).
// Finding the minimum-cost such tree is the (directed) Steiner tree
// problem (§3.2). Three solvers are provided:
//
//   - SteinerIntervalDP: the exact interval dynamic program, O(w³); the
//     solver every evaluation uses.
//   - SteinerGreedy: the paper's Algorithm 1 — grow the tree by repeatedly
//     connecting the terminal nearest to it via a shortest path. Slower
//     and costlier than the DP; the baseline of the ablation.
//   - SteinerBrute: exhaustive path-assignment enumeration, exponential,
//     for w ≤ 7; the oracle in tests.
//
// All return a SteinerTree: the set of grid edges used.

// SteinerTree is a schedule tree in the grid: edge set plus total cost.
type SteinerTree struct {
	W     int
	Edges []GridEdge
	Cost  int64
}

// nodeIndex maps interval [i,j] to a dense index.
func nodeIndex(w, i, j int) int { return j*(j+1)/2 + i }

// SteinerGreedy implements Algorithm 1's Identify-Steiner-Tree: start
// from the root, and while some leaf is unconnected, connect the leaf
// closest to the current tree along a cheapest path. Edges already in the
// tree are free, which is what realizes the work sharing.
func SteinerGreedy(tg *TG) *SteinerTree {
	w := tg.W
	if w == 1 {
		return &SteinerTree{W: 1}
	}
	inTree := make([]bool, w*(w+1)/2)
	inTree[nodeIndex(w, 0, w-1)] = true
	used := map[GridEdge]bool{}
	connected := make([]bool, w)

	// dist/pred arrays over nodes, recomputed each round by relaxing the
	// grid DAG from all tree nodes at once (longest intervals first).
	dist := make([]int64, w*(w+1)/2)
	pred := make([]GridEdge, w*(w+1)/2)
	hasPred := make([]bool, w*(w+1)/2)

	for rounds := 0; rounds < w; rounds++ {
		// Multi-source shortest path from the tree over the DAG.
		for i := range dist {
			dist[i] = math.MaxInt64
			hasPred[i] = false
		}
		for j := w - 1; j >= 0; j-- {
			for i := 0; i+j <= w-1; i++ {
				// interval [i, i+j] of length j+1
				hi, hj := i, i+j
				idx := nodeIndex(w, hi, hj)
				if inTree[idx] {
					dist[idx] = 0
					hasPred[idx] = false
				}
				if dist[idx] == math.MaxInt64 {
					continue
				}
				if hj > hi {
					// left child [hi, hj-1]
					le := GridEdge{I: hi, J: hj, Left: true}
					cost := tg.LabelSize(le)
					if used[le] {
						cost = 0
					}
					ci := nodeIndex(w, hi, hj-1)
					if d := dist[idx] + cost; d < dist[ci] {
						dist[ci] = d
						pred[ci] = le
						hasPred[ci] = true
					}
					// right child [hi+1, hj]
					re := GridEdge{I: hi, J: hj, Left: false}
					cost = tg.LabelSize(re)
					if used[re] {
						cost = 0
					}
					ci = nodeIndex(w, hi+1, hj)
					if d := dist[idx] + cost; d < dist[ci] {
						dist[ci] = d
						pred[ci] = re
						hasPred[ci] = true
					}
				}
			}
		}
		// Pick the cheapest unconnected leaf.
		best, bestLeaf := int64(math.MaxInt64), -1
		for k := 0; k < w; k++ {
			if connected[k] {
				continue
			}
			if d := dist[nodeIndex(w, k, k)]; d < best {
				best = d
				bestLeaf = k
			}
		}
		if bestLeaf < 0 {
			break
		}
		// Trace the path back to the tree, adding nodes and edges.
		i, j := bestLeaf, bestLeaf
		for {
			idx := nodeIndex(w, i, j)
			inTree[idx] = true
			if !hasPred[idx] {
				break
			}
			e := pred[idx]
			used[e] = true
			i, j = e.I, e.J
		}
		connected[bestLeaf] = true
	}

	t := &SteinerTree{W: w}
	for e := range used {
		t.Edges = append(t.Edges, e)
		t.Cost += tg.LabelSize(e)
	}
	sortGridEdges(t.Edges)
	return t
}

// sortGridEdges orders edges deterministically (by J desc, I asc, left
// first) so results are stable across runs.
func sortGridEdges(es []GridEdge) {
	slices.SortFunc(es, func(a, b GridEdge) int {
		if c := cmp.Or(b.J-a.J, a.I-b.I); c != 0 || a.Left == b.Left {
			return c
		}
		if a.Left {
			return -1
		}
		return 1
	})
}

// SpansAllLeaves verifies the tree reaches every leaf from the root using
// only its edges — the structural invariant of a schedule.
func (t *SteinerTree) SpansAllLeaves() bool {
	if t.W == 1 {
		return true
	}
	adj := map[[2]int][]GridEdge{}
	for _, e := range t.Edges {
		adj[[2]int{e.I, e.J}] = append(adj[[2]int{e.I, e.J}], e)
	}
	reached := map[[2]int]bool{}
	stack := [][2]int{{0, t.W - 1}}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached[n] {
			continue
		}
		reached[n] = true
		for _, e := range adj[n] {
			ti, tj := e.To()
			stack = append(stack, [2]int{ti, tj})
		}
	}
	for k := 0; k < t.W; k++ {
		if !reached[[2]int{k, k}] {
			return false
		}
	}
	return true
}

// SteinerIntervalDP computes the minimum-cost schedule tree in O(w³) time
// and O(w²) space. Every root→[a,b] path streams size(a,b) = |C[a,b]| − |E_c|
// whichever way it zigzags (TG.rootDistances), so a subtree covering leaves
// a..b that branches at some [p,q] ⊋ [a,b] pays size(a,b) − size(p,q) ≥ 0
// more than one that walks to [a,b] first and branches there. With via(a,b)
// the least a tree streams to reach [a,b] from the root and cover leaves
// a..b below it,
//
//	via(k,k) = size(k,k)
//	via(a,b) = min over a ≤ m < b of via(a,m) + via(m+1,b) − size(a,b)
//
// a left chain [a,b]→[a,m] and a right chain [a,b]→[m+1,b] per split, each
// of which NewSchedule's bypass compression turns into one schedule edge.
// Giving every node a contiguous range of leaves loses nothing — root paths
// that cross in the planar grid share a node and can swap tails without
// changing the edge union — and SteinerBrute agrees on every tested window.
func SteinerIntervalDP(tg *TG) *SteinerTree {
	w := tg.W
	if w == 1 {
		return &SteinerTree{W: 1}
	}
	// Dense w×w tables indexed a*w+b.
	size := tg.rootDistances()
	via := make([]int64, w*w)
	split := make([]int32, w*w)
	for k := 0; k < w; k++ {
		via[k*w+k] = size[k*w+k]
	}
	for n := 1; n < w; n++ {
		for a := 0; a+n < w; a++ {
			b := a + n
			best, bestM := int64(math.MaxInt64), a
			for m := a; m < b; m++ {
				if c := via[a*w+m] + via[(m+1)*w+b]; c < best {
					best, bestM = c, m
				}
			}
			via[a*w+b] = best - size[a*w+b]
			split[a*w+b] = int32(bestM)
		}
	}

	t := &SteinerTree{W: w, Cost: via[w-1]}
	var rebuild func(a, b int)
	rebuild = func(a, b int) {
		if a == b {
			return
		}
		m := int(split[a*w+b])
		for j := b; j > m; j-- {
			t.Edges = append(t.Edges, GridEdge{I: a, J: j, Left: true})
		}
		for i := a; i <= m; i++ {
			t.Edges = append(t.Edges, GridEdge{I: i, J: b, Left: false})
		}
		rebuild(a, m)
		rebuild(m+1, b)
	}
	rebuild(0, w-1)
	sortGridEdges(t.Edges)
	return t
}

// SteinerBrute exhaustively enumerates one root-to-leaf path per leaf and
// minimizes the cost of the union of path edges. Exponential; w ≤ 7.
func SteinerBrute(tg *TG) *SteinerTree {
	w := tg.W
	if w > 7 {
		panic("core: SteinerBrute is exponential; w must be ≤ 7")
	}
	if w == 1 {
		return &SteinerTree{W: 1}
	}
	// Enumerate all paths from root [0,w-1] to each leaf [k,k]. A path is
	// a sequence of L/R moves; to reach [k,k] we need exactly k R-moves
	// and w-1-k L-moves, in any order.
	paths := make([][][]GridEdge, w)
	var walk func(i, j, k int, acc []GridEdge)
	walk = func(i, j, k int, acc []GridEdge) {
		if i == j {
			p := make([]GridEdge, len(acc))
			copy(p, acc)
			paths[k] = append(paths[k], p)
			return
		}
		if j-1 >= k { // can still reach k after a left move
			walk(i, j-1, k, append(acc, GridEdge{I: i, J: j, Left: true}))
		}
		if i+1 <= k { // right move
			walk(i+1, j, k, append(acc, GridEdge{I: i, J: j, Left: false}))
		}
	}
	for k := 0; k < w; k++ {
		walk(0, w-1, k, nil)
	}
	idx := make([]int, w)
	best := int64(math.MaxInt64)
	var bestUnion []GridEdge
	for {
		union := map[GridEdge]bool{}
		for k := 0; k < w; k++ {
			for _, e := range paths[k][idx[k]] {
				union[e] = true
			}
		}
		var cost int64
		for e := range union {
			cost += tg.LabelSize(e)
		}
		if cost < best {
			best = cost
			bestUnion = bestUnion[:0]
			for e := range union {
				bestUnion = append(bestUnion, e)
			}
		}
		// Advance the mixed-radix counter.
		k := 0
		for ; k < w; k++ {
			idx[k]++
			if idx[k] < len(paths[k]) {
				break
			}
			idx[k] = 0
		}
		if k == w {
			break
		}
	}
	t := &SteinerTree{W: w, Cost: best, Edges: bestUnion}
	sortGridEdges(t.Edges)
	return t
}
