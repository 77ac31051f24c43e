// Package engine is the push-based iterative execution engine shared by
// the KickStarter baseline and the CommonGraph system. It evaluates a
// monotonic vertex program (internal/algo) over any adjacency view
// (internal/delta.Graph) from scratch or incrementally, sequentially or in
// parallel, and maintains the dependence tree (each vertex's parent — the
// in-neighbour that justified its value) that KickStarter-style trimming
// requires.
package engine

import (
	"slices"
	"sync/atomic"

	"commongraph/internal/algo"
	"commongraph/internal/graph"
)

// State is the query state for one graph version: per-vertex (value,
// parent) pairs packed into single 64-bit words so parallel updates keep
// value and dependence parent consistent, plus the query's source.
type State struct {
	a   algo.Algorithm
	src graph.VertexID
	// min caches a.Direction() == Minimize so the per-edge improvement
	// test is a plain comparison, not an interface call.
	min bool
	//cgvet:ignore atomicguard -- phase contract: Load/TryImprove/Improves CAS words while workers run; Clone/Equal/Reached and construction touch them plainly only at quiescent points (no pass in flight)
	words []uint64 // hi 32 bits: value (int32 bit pattern); lo 32: parent
}

func pack(v algo.Value, parent graph.VertexID) uint64 {
	return uint64(uint32(v))<<32 | uint64(uint32(parent))
}

func unpack(w uint64) (algo.Value, graph.VertexID) {
	return algo.Value(int32(uint32(w >> 32))), graph.VertexID(uint32(w))
}

// NewState allocates state for n vertices: every vertex holds the
// algorithm's identity except the source, which holds its source value.
func NewState(n int, a algo.Algorithm, src graph.VertexID) *State {
	s := &State{a: a, src: src, min: a.Direction() == algo.Minimize, words: make([]uint64, n)}
	id := pack(a.Identity(), graph.NoVertex)
	for i := range s.words {
		s.words[i] = id
	}
	s.words[src] = pack(a.SourceValue(), graph.NoVertex)
	return s
}

// NumVertices returns the number of vertices covered.
func (s *State) NumVertices() int { return len(s.words) }

// Algorithm returns the vertex program this state belongs to.
func (s *State) Algorithm() algo.Algorithm { return s.a }

// Source returns the query source vertex.
func (s *State) Source() graph.VertexID { return s.src }

// Value returns v's current value.
func (s *State) Value(v graph.VertexID) algo.Value {
	val, _ := unpack(atomic.LoadUint64(&s.words[v]))
	return val
}

// Parent returns the in-neighbour that justified v's current value, or
// NoVertex for the source and unreached vertices.
func (s *State) Parent(v graph.VertexID) graph.VertexID {
	_, p := unpack(atomic.LoadUint64(&s.words[v]))
	return p
}

// Load returns v's (value, parent) pair atomically.
func (s *State) Load(v graph.VertexID) (algo.Value, graph.VertexID) {
	return unpack(atomic.LoadUint64(&s.words[v]))
}

// TryImprove installs (cand, parent) at v if cand improves on v's current
// value, retrying on contention. It reports whether the value changed.
// This is the CASMIN/CASMAX of Table 3.
func (s *State) TryImprove(v graph.VertexID, cand algo.Value, parent graph.VertexID) bool {
	for {
		old := atomic.LoadUint64(&s.words[v])
		cur, _ := unpack(old)
		if s.min {
			if cand >= cur {
				return false
			}
		} else if cand <= cur {
			return false
		}
		if atomic.CompareAndSwapUint64(&s.words[v], old, pack(cand, parent)) {
			return true
		}
	}
}

// Improves reports whether cand would improve v's value right now, given
// the cached improvement direction (pass State.minimize). It is an
// inlinable racy pre-filter for the hot loops: a true answer may go stale
// before the CAS, so callers must still go through TryImprove — but the
// common non-improving edge skips the function call entirely.
func (s *State) Improves(v graph.VertexID, cand algo.Value, minimize bool) bool {
	cur, _ := unpack(atomic.LoadUint64(&s.words[v]))
	if minimize {
		return cand < cur
	}
	return cand > cur
}

// minimize exposes the cached direction for hot-loop hoisting.
func (s *State) minimize() bool { return s.min }

// Reset forces v to (value, parent) unconditionally. Used by trimming to
// invalidate vertices; not safe concurrently with TryImprove on v.
func (s *State) Reset(v graph.VertexID, val algo.Value, parent graph.VertexID) {
	atomic.StoreUint64(&s.words[v], pack(val, parent))
}

// Clone returns an independent copy of the state. The receiver must be
// quiescent (no concurrent writers).
func (s *State) Clone() *State {
	// slices.Clone skips the zero-fill that make followed by copy pays.
	return &State{a: s.a, src: s.src, min: s.min, words: slices.Clone(s.words)}
}

// Summary is a snapshot's result in one scan of a quiescent state: how
// many vertices hold a non-identity value, the FNV-1a fold of the values'
// 32-bit patterns in vertex order (the checksum strategies are compared
// by and api/v1 pins) and, with keep, a copy of the values.
func (s *State) Summary(keep bool) (reached int, checksum uint64, values []algo.Value) {
	if keep {
		values = make([]algo.Value, len(s.words))
	}
	id := uint32(s.a.Identity())
	checksum = 14695981039346656037 // FNV-1a 64-bit offset basis
	for i, w := range s.words {
		v := uint32(w >> 32)
		if v != id {
			reached++
		}
		checksum = (checksum ^ uint64(v)) * 1099511628211 // FNV prime
		if keep {
			values[i] = algo.Value(int32(v))
		}
	}
	return reached, checksum, values
}

// Values copies the value array out (for result reporting).
func (s *State) Values() []algo.Value {
	_, _, values := s.Summary(true)
	return values
}

// Reached counts vertices whose value is not the identity.
func (s *State) Reached() int {
	reached, _, _ := s.Summary(false)
	return reached
}

// Equal reports whether two states agree on every vertex value (parents
// may differ: shortest-path trees are not unique).
func (s *State) Equal(o *State) bool {
	if len(s.words) != len(o.words) {
		return false
	}
	for i := range s.words {
		v1, _ := unpack(s.words[i])
		v2, _ := unpack(o.words[i])
		if v1 != v2 {
			return false
		}
	}
	return true
}
