// Package engine is the push-based iterative execution engine shared by
// the KickStarter baseline and the CommonGraph system. It evaluates a
// monotonic vertex program (internal/algo) over the flat rows of any
// adjacency view (internal/delta.Graph) from scratch or incrementally,
// sequentially or in parallel, and maintains the dependence tree (each vertex's parent — the
// in-neighbour that justified its value) that KickStarter-style trimming
// requires.
package engine

import (
	"slices"
	"sync"
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
	//cgvet:ignore atomicguard -- phase contract: Load/TryImprove/Improves CAS words while workers run; improveSeq loads and stores them plainly in single-writer phases (addition seeding, sparseSeq, denseSeq, runAsync: one goroutine, no worker in flight); Clone/CloneRecycled/Recycle/Equal/Summary and construction touch them plainly only at quiescent points (no pass in flight)
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

// improveSeq is TryImprove for the single-writer phases — addition
// seeding, sparseSeq, denseSeq and the async drain, where one goroutine
// owns the state and no worker is in flight: a plain load, compare and
// store in place of the pre-filter load plus LOCK CMPXCHG. The worker
// bodies (pushRange, pushFull) keep Improves + TryImprove.
func (s *State) improveSeq(v graph.VertexID, cand algo.Value, parent graph.VertexID, minimize bool) bool {
	cur := algo.Value(int32(uint32(s.words[v] >> 32)))
	if minimize {
		if cand >= cur {
			return false
		}
	} else if cand <= cur {
		return false
	}
	s.words[v] = pack(cand, parent)
	return true
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

// maxFreeStates bounds the free list: a handful covers the states a
// sequential walk and a few concurrent hops have in flight, and caps what
// the process retains at maxFreeStates states of the largest graph served.
const maxFreeStates = 8

// freeStates is the process-wide free list behind CloneRecycled and
// Recycle. It outlives an evaluation on purpose: a parallel strategy has
// every unit's state in flight at once, so only the states the previous
// evaluation returned spare the next one its allocations.
var freeStates struct {
	sync.Mutex
	list []*State
}

// ScribbleOnRecycle is a test hook: while set, Recycle overwrites every
// word of the state it is handed, so a reader that kept the state past its
// release sees garbage instead of a plausible result.
var ScribbleOnRecycle atomic.Bool

// CloneRecycled is Clone into storage a finished evaluation handed back
// through Recycle — a copy, with no allocation and no zero-fill, when the
// free list holds a state at least as large. The receiver must be
// quiescent. The caller owns the copy and should Recycle it once the
// state is dead.
func (s *State) CloneRecycled() *State {
	freeStates.Lock()
	var c *State
	if last := len(freeStates.list) - 1; last >= 0 {
		c, freeStates.list[last] = freeStates.list[last], nil
		freeStates.list = freeStates.list[:last]
	}
	freeStates.Unlock()
	n := len(s.words)
	if c == nil || cap(c.words) < n {
		// Nothing to reuse, or storage sized for a smaller graph: graphs of
		// different sizes share the process, and dropping the misfit lets
		// the list follow the sizes actually in use.
		return s.Clone()
	}
	c.a, c.src, c.min, c.words = s.a, s.src, s.min, c.words[:n]
	copy(c.words, s.words)
	return c
}

// Recycle hands a dead state's storage to the free list; the list drops it
// when full. The caller must own s exclusively and never touch it again:
// the next CloneRecycled, on any goroutine, overwrites it. A state someone
// else may still read — an evaluation's common fixpoint, a caller-supplied
// Config.Common — is never recycled.
func (s *State) Recycle() {
	if ScribbleOnRecycle.Load() {
		for i := range s.words {
			s.words[i] = 0x5bd1e9955bd1e995 // no algorithm's identity, source value or parent
		}
	}
	s.a = nil // a late Summary panics instead of folding a stranger's values
	freeStates.Lock()
	if len(freeStates.list) < maxFreeStates {
		freeStates.list = append(freeStates.list, s)
	}
	freeStates.Unlock()
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
