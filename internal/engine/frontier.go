package engine

import (
	"math/bits"
	"sync"

	"commongraph/internal/graph"
)

// frontier is the hybrid active-vertex set of the §4.3 scheduler: a
// bitset (the dense representation, always authoritative for membership)
// plus, when the set is small, an exact sparse vertex list. Small
// frontiers — the common case for incremental batches — are iterated and
// cleared in O(|F|) through the list instead of O(V/64) full-bitset scans.
// Like the State it drives, a frontier belongs to the goroutine running
// the pass.
type frontier struct {
	bits []uint64
	n    int
	// sparse is the exact active list (no duplicates, unspecified order)
	// while !dense; it is meaningless when dense is set.
	sparse []graph.VertexID
	dense  bool
}

func newFrontier(n int) *frontier {
	return &frontier{bits: make([]uint64, (n+63)/64), n: n}
}

// frontiers recycles the seed frontiers of incremental passes and the
// second frontier of sync passes. A pooled frontier is empty and its whole
// bitset — past its current length too — is clear.
var frontiers sync.Pool

// getFrontier returns an empty frontier over n vertices: a pooled one when
// its bitset has room for n, else a new one. A misfit is dropped, so the
// pool follows the graph sizes in use.
func getFrontier(n int) *frontier {
	words := (n + 63) / 64
	if f, _ := frontiers.Get().(*frontier); f != nil && cap(f.bits) >= words {
		f.bits, f.n = f.bits[:words], n
		return f
	}
	return newFrontier(n)
}

// putFrontier hands back a frontier whose bitset is clear (a pass that
// drained or cleared it); the list keeps its storage.
func putFrontier(f *frontier) {
	f.sparse, f.dense = f.sparse[:0], false
	frontiers.Put(f)
}

// reserve sizes the sparse list for up to n set calls, so seeding a
// batch never regrows it; past the keep bound the list is dropped anyway.
func (f *frontier) reserve(n int) {
	if keep := f.n/sparseKeepDenom + 1; n > keep {
		n = keep
	}
	if cap(f.sparse) < n {
		f.sparse = make([]graph.VertexID, 0, n)
	}
}

// sparseKeepDenom bounds the kept list: past n/sparseKeepDenom active
// vertices the list is dropped and iteration reverts to the ordered word
// scan, whose sequential access pattern wins on large frontiers.
const sparseKeepDenom = 16

// set marks v active and keeps the sparse list exact.
func (f *frontier) set(v graph.VertexID) {
	w := &f.bits[v>>6]
	mask := uint64(1) << (v & 63)
	if *w&mask != 0 {
		return
	}
	*w |= mask
	if !f.dense {
		f.sparse = append(f.sparse, v)
		if len(f.sparse)*sparseKeepDenom > f.n {
			f.drop()
		}
	}
}

// drop abandons the sparse list; the set lives only in the bitset.
func (f *frontier) drop() {
	f.sparse = f.sparse[:0]
	f.dense = true
}

// isSparse reports whether the exact active list is available.
func (f *frontier) isSparse() bool { return !f.dense }

// list returns the exact active list (only valid while isSparse).
func (f *frontier) list() []graph.VertexID { return f.sparse }

// members returns the active vertices: the exact list while sparse (the
// frontier's own backing array), else the bitset's members in ascending
// order, collected into that array.
func (f *frontier) members() []graph.VertexID {
	if !f.dense {
		return f.sparse
	}
	out := f.sparse[:0]
	for wi, w := range f.bits {
		for ; w != 0; w &= w - 1 {
			out = append(out, graph.VertexID(wi*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// has reports whether v is active.
func (f *frontier) has(v graph.VertexID) bool {
	return f.bits[v>>6]&(uint64(1)<<(v&63)) != 0
}

// clear empties the frontier, retaining capacity. A sparse frontier
// clears only the words its vertices occupy — O(|F|), not O(V/64).
func (f *frontier) clear() {
	if !f.dense && len(f.sparse) < len(f.bits) {
		for _, v := range f.sparse {
			f.bits[v>>6] = 0
		}
	} else {
		for i := range f.bits {
			f.bits[i] = 0
		}
	}
	f.sparse = f.sparse[:0]
	f.dense = false
}

// count returns the number of active vertices.
func (f *frontier) count() int {
	if !f.dense {
		return len(f.sparse)
	}
	c := 0
	for _, w := range f.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// empty reports whether no vertex is active.
func (f *frontier) empty() bool {
	if !f.dense {
		return len(f.sparse) == 0
	}
	for _, w := range f.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// forEach calls fn for every active vertex in ascending order: the dense
// scan.
func (f *frontier) forEach(fn func(v graph.VertexID)) {
	for wi, w := range f.bits {
		for ; w != 0; w &= w - 1 {
			if v := wi*64 + bits.TrailingZeros64(w); v < f.n {
				fn(graph.VertexID(v))
			}
		}
	}
}
