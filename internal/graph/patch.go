package graph

import (
	"math"
	"slices"
)

// The constants behind PatchRows' amortisation, measured on the
// benchmark's live window (LJ-sim stand-in at twice its size: 872 K common
// edges over 32 768 vertices, a 16-wide window, 500 + 500 edges per
// transition). A slide there rewrites 929 rows holding 174 K edges, a
// fifth of the common graph, because R-MAT deletions land on heavy rows;
// the tail fills and the dead slots grow by that much per slide. Mean
// bytes allocated per slide over 70 slides, everything a slide does:
// factor 2 / dead 1 compacts every 5 slides, 4.61 MB; 3 / 2 every 10,
// 4.12 MB; 4 / 3 every 15, 4.02 MB. A compaction's arrays cost
// tailFactor × live slots, so 3 / 2 takes most of the gain at three times
// the live edges, and 4 / 3 buys 2 % more for a third more memory.
const (
	// tailFactor sizes a compacted backing array at this many times its
	// live edges; the rest is tail for later patches.
	tailFactor = 3
	// deadPerLive compacts once the dead slots exceed this many times the
	// live edges; tailFactor-1, so the tail and the dead-slot budget run
	// out together.
	deadPerLive = 2
)

// PatchStats is what one PatchRows wrote.
type PatchStats struct {
	// Rows and Edges count the rows written afresh (every row with an edge
	// in remove or add) and the half-edges they hold.
	Rows, Edges int
	// Compacted is set when the patch copied every row into fresh backing
	// arrays instead of appending the rewritten ones to the shared tail.
	Compacted bool
}

// PatchRows returns the forward CSR of (c \ remove) ∪ add, with Patch's
// weights: an edge of add that c keeps has c's weight, one that remove
// takes out first has add's. remove and add must be canonical and c's rows
// sorted by destination, as they are in a CSR built from a canonical list.
//
// The successor shares c's targets and weights backing arrays. It copies
// the per-vertex starts and ends (2 × 4 × V bytes) and writes every
// touched row afresh, sorted by destination, into the tail past the last
// slot c can see, so neither c nor any CSR before it observes a write: a
// pass over c, on any goroutine, reads what it always read. The tail goes
// to the first patch off c (an atomic claim); another patch off c, or one
// whose rows do not fit the tail, or one that would leave more than
// deadPerLive dead slots per live edge, compacts: it copies every row
// into fresh backing arrays sized tailFactor times the live edges.
func PatchRows(c *CSR, remove, add EdgeList) (*CSR, PatchStats) {
	var st PatchStats
	dead, live := len(c.targets)-c.m, c.m
	need := 0 // slots the touched rows take
	eachRow(remove, add, func(u VertexID, rem, ad []Edge) {
		lo, hi := c.starts[u], c.ends[u]
		k := patchedLen(c.targets[lo:hi], rem, ad)
		st.Rows++
		st.Edges += k
		need += k
		dead += int(hi - lo)
		live += k - int(hi-lo)
	})
	fits := len(c.targets)+need <= cap(c.targets) && dead <= deadPerLive*live
	if !fits || !c.claimed.CompareAndSwap(false, true) {
		st.Compacted = true
		return compact(c, remove, add, live), st
	}
	se := make([]int32, 2*c.n)
	starts, ends := se[:c.n:c.n], se[c.n:]
	copy(starts, c.starts)
	copy(ends, c.ends)
	p := len(c.targets)
	targets, weights := c.targets[:p+need], c.weights[:p+need]
	eachRow(remove, add, func(u VertexID, rem, ad []Edge) {
		lo, hi := c.starts[u], c.ends[u]
		k := writeRow(targets[p:], weights[p:], c.targets[lo:hi], c.weights[lo:hi], rem, ad)
		starts[u], ends[u] = int32(p), int32(p+k)
		p += k
	})
	return &CSR{n: c.n, starts: starts, ends: ends, targets: targets, weights: weights, m: live}, st
}

// compact writes (c \ remove) ∪ add, live half-edges in all, back to back
// into fresh backing arrays with a tail of (tailFactor-1) × live slots, as
// far as int32 positions reach.
func compact(c *CSR, remove, add EdgeList, live int) *CSR {
	size := min(tailFactor*live, math.MaxInt32) // slots are int32 positions
	offsets := make([]int32, c.n+1)
	targets := make([]VertexID, live, size)
	weights := make([]Weight, live, size)
	p, next := 0, 0 // next: the first row not yet written
	copyRows := func(to int) {
		for ; next < to; next++ {
			lo, hi := c.starts[next], c.ends[next]
			copy(weights[p:], c.weights[lo:hi])
			p += copy(targets[p:], c.targets[lo:hi])
			offsets[next+1] = int32(p)
		}
	}
	eachRow(remove, add, func(u VertexID, rem, ad []Edge) {
		copyRows(int(u))
		lo, hi := c.starts[u], c.ends[u]
		p += writeRow(targets[p:], weights[p:], c.targets[lo:hi], c.weights[lo:hi], rem, ad)
		offsets[u+1] = int32(p)
		next = int(u) + 1
	})
	copyRows(c.n)
	return fromOffsets(c.n, offsets, targets, weights)
}

// eachRow calls fn once per source of remove ∪ add, in ascending order,
// with that source's runs of the two canonical lists.
func eachRow(remove, add EdgeList, fn func(u VertexID, rem, ad []Edge)) {
	r, a := 0, 0
	for r < len(remove) || a < len(add) {
		var u VertexID
		switch {
		case a == len(add):
			u = remove[r].Src
		case r == len(remove):
			u = add[a].Src
		default:
			u = min(remove[r].Src, add[a].Src)
		}
		r0, a0 := r, a
		for r < len(remove) && remove[r].Src == u {
			r++
		}
		for a < len(add) && add[a].Src == u {
			a++
		}
		fn(u, remove[r0:r], add[a0:a])
	}
}

// patchedLen returns the length of (row \ rem) ∪ ad for a sorted row and
// one source's runs of remove and add, by a binary search per edge of the
// runs: the row itself is not walked.
func patchedLen(row []VertexID, rem, ad []Edge) int {
	k := len(row)
	for _, e := range rem {
		if _, ok := slices.BinarySearch(row, e.Dst); ok {
			k--
		}
	}
	r := 0
	for _, e := range ad {
		if _, ok := slices.BinarySearch(row, e.Dst); !ok {
			k++
			continue
		}
		for r < len(rem) && rem[r].Dst < e.Dst {
			r++
		}
		if r < len(rem) && rem[r].Dst == e.Dst {
			k++ // removed, then added back
		}
	}
	return k
}

// writeRow writes (row \ rem) ∪ ad, sorted by destination, to the front of
// dt/dw and returns its length. An edge of ad that the row keeps keeps the
// row's weight; one that rem takes out first has ad's.
func writeRow(dt []VertexID, dw []Weight, rt []VertexID, rw []Weight, rem, ad []Edge) int {
	k, i, r, a := 0, 0, 0, 0
	for i < len(rt) || a < len(ad) {
		if a == len(ad) || (i < len(rt) && rt[i] <= ad[a].Dst) {
			v := rt[i]
			for r < len(rem) && rem[r].Dst < v {
				r++
			}
			if r < len(rem) && rem[r].Dst == v {
				r++
				i++
				continue // an add of v, if any, follows with its own weight
			}
			if a < len(ad) && ad[a].Dst == v {
				a++
			}
			dt[k], dw[k] = v, rw[i]
			k++
			i++
			continue
		}
		dt[k], dw[k] = ad[a].Dst, ad[a].W
		k++
		a++
	}
	return k
}
