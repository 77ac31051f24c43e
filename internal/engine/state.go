// Package engine is the push-based iterative execution engine shared by
// the KickStarter baseline and the CommonGraph system. It evaluates a
// monotonic vertex program (internal/algo) over the flat rows of any
// adjacency view (internal/delta.Graph) from scratch, in value order, or
// incrementally, and maintains the dependence tree (each vertex's parent —
// the in-neighbour that justified its value) that KickStarter-style
// trimming requires. Every pass runs on the goroutine that calls it:
// concurrency lives a layer up, in the independent units (hops, subtrees)
// an evaluation runs side by side.
package engine

import (
	"slices"
	"sync"
	"sync/atomic"

	"commongraph/internal/algo"
	"commongraph/internal/graph"
)

// State is the query state for one graph version: per-vertex (value,
// parent) pairs packed into single 64-bit words, plus the query's source.
// One goroutine owns a state at a time: a pass reads and writes its words
// with plain loads and stores, and a state changes hands (a unit's copy,
// a result handed to a reader) only between passes.
type State struct {
	a   algo.Algorithm
	src graph.VertexID
	// min caches a.Direction() == Minimize so the per-edge improvement
	// test is a plain comparison, not an interface call.
	min   bool
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
	s := &State{words: make([]uint64, n)}
	s.init(a, src)
	return s
}

// newStateRecycled is NewState in storage from the free list, when it
// holds a state large enough.
func newStateRecycled(n int, a algo.Algorithm, src graph.VertexID) *State {
	s := takeFree(n)
	if s == nil {
		return NewState(n, a, src)
	}
	s.init(a, src)
	return s
}

// init makes s a fresh state of (a, src): the identity everywhere but at
// the source.
func (s *State) init(a algo.Algorithm, src graph.VertexID) {
	s.a, s.src, s.min = a, src, a.Direction() == algo.Minimize
	id := pack(a.Identity(), graph.NoVertex)
	for i := range s.words {
		s.words[i] = id
	}
	s.words[src] = pack(a.SourceValue(), graph.NoVertex)
}

// NumVertices returns the number of vertices covered.
func (s *State) NumVertices() int { return len(s.words) }

// Algorithm returns the vertex program this state belongs to.
func (s *State) Algorithm() algo.Algorithm { return s.a }

// Source returns the query source vertex.
func (s *State) Source() graph.VertexID { return s.src }

// Value returns v's current value.
func (s *State) Value(v graph.VertexID) algo.Value {
	val, _ := unpack(s.words[v])
	return val
}

// Parent returns the in-neighbour that justified v's current value, or
// NoVertex for the source and unreached vertices.
func (s *State) Parent(v graph.VertexID) graph.VertexID {
	_, p := unpack(s.words[v])
	return p
}

// TryImprove installs (cand, parent) at v if cand improves on v's current
// value, and reports whether it did: the relaxation every pass's hot loop
// runs, the plain counterpart of Table 3's CASMIN/CASMAX.
func (s *State) TryImprove(v graph.VertexID, cand algo.Value, parent graph.VertexID) bool {
	if !s.Improves(v, cand) {
		return false
	}
	s.words[v] = pack(cand, parent)
	return true
}

// Improves reports whether cand would improve v's current value.
func (s *State) Improves(v graph.VertexID, cand algo.Value) bool {
	cur := s.Value(v)
	if s.min {
		return cand < cur
	}
	return cand > cur
}

// Reset forces v to (value, parent) unconditionally. Used by trimming to
// invalidate vertices.
func (s *State) Reset(v graph.VertexID, val algo.Value, parent graph.VertexID) {
	s.words[v] = pack(val, parent)
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

// freeStates is the process-wide free list behind Run, CloneRecycled and
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
	c := takeFree(len(s.words))
	if c == nil {
		return s.Clone()
	}
	c.a, c.src, c.min = s.a, s.src, s.min
	copy(c.words, s.words)
	return c
}

// takeFree pops the free list's last state, resliced to n words, or returns
// nil when the list is empty or that state is sized for a smaller graph:
// graphs of different sizes share the process, and dropping the misfit
// lets the list follow the sizes actually in use.
func takeFree(n int) *State {
	freeStates.Lock()
	var c *State
	if last := len(freeStates.list) - 1; last >= 0 {
		c, freeStates.list[last] = freeStates.list[last], nil
		freeStates.list = freeStates.list[:last]
	}
	freeStates.Unlock()
	if c == nil || cap(c.words) < n {
		return nil
	}
	c.words = c.words[:n]
	return c
}

// Recycle hands a dead state's storage to the free list; the list drops it
// when full. The caller must own s exclusively and never touch it again:
// the next Run or CloneRecycled, on any goroutine, overwrites it. A state
// someone else may still read — a caller-supplied Config.Common, a state
// handed to a caller — is never recycled.
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
