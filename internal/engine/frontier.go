package engine

import (
	"math/bits"
	"sync/atomic"

	"commongraph/internal/graph"
)

// frontier is the hybrid active-vertex set of the §4.3 scheduler: an
// atomic bitset (the dense representation, always authoritative for
// membership) plus, when the set is small, an exact sparse vertex list.
// Small frontiers — the common case for incremental batches and the first
// and last levels of a from-scratch solve — are iterated and cleared in
// O(|F|) through the list instead of O(V/64) full-bitset scans.
//
// Concurrency contract: trySet is the only operation safe to call from
// concurrent workers, and it maintains only the bitset. The engine
// collects the newly set vertices in per-worker buffers and, at the
// iteration barrier, publishes them with adopt (list retained) or drop
// (list abandoned, set is dense). Every other method is single-writer and
// assumes the list/bitset invariant holds.
type frontier struct {
	//cgvet:ignore atomicguard -- phase contract (documented above): trySet CASes bits only inside sparsePar/densePar worker pools; every plain access (setSeq, clear, the async drain's in-queue set) runs single-writer with no worker in flight
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

// reserve sizes the sparse list for up to n setSeq calls, so seeding a
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

// trySet marks v active (atomic; safe from concurrent workers) and
// reports whether the bit was newly set — exactly one caller wins, so
// per-worker buffers collect each vertex once. The sparse list is NOT
// maintained; the caller must adopt or drop at the barrier.
func (f *frontier) trySet(v graph.VertexID) bool {
	w := &f.bits[v>>6]
	mask := uint64(1) << (v & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// setSeq marks v active without atomics (single-writer phases: seeding,
// sequential iterations) and keeps the sparse list exact.
func (f *frontier) setSeq(v graph.VertexID) {
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

// adopt publishes list as the exact active set after a concurrent phase
// whose trySet calls already populated the bitset. The frontier takes
// ownership of list's backing array. Oversized lists degrade to dense.
func (f *frontier) adopt(list []graph.VertexID) {
	if len(list)*sparseKeepDenom > f.n {
		f.drop()
		return
	}
	f.sparse = list
	f.dense = false
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

// forEachInWordRange calls fn for every active vertex whose bitset word
// index lies in [lo, hi), in ascending order. Dense-scan iteration.
func (f *frontier) forEachInWordRange(lo, hi int, fn func(v graph.VertexID)) {
	for wi := lo; wi < hi; wi++ {
		w := f.bits[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			v := graph.VertexID(wi*64 + b)
			if int(v) < f.n {
				fn(v)
			}
			w &= w - 1
		}
	}
}

// words returns the number of bitset words (the dense-scan extent).
func (f *frontier) words() int { return len(f.bits) }
