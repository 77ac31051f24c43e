// Package algo defines the monotonic vertex algorithms of the paper's
// Table 3 — BFS, SSSP, SSWP, SSNP, and Viterbi — behind one Algorithm
// interface. All are "monotonic" in KickStarter's sense: a vertex's value
// only ever improves along a fixed total order, which is what makes
// incremental edge addition cheap and makes deletion require trimming.
package algo

import "commongraph/internal/graph"

// Value is a vertex value. It is 32 bits so the engine can pack
// (value, parent) into one atomically-updatable 64-bit word, which keeps
// the dependence tree consistent under parallel updates.
//
// BFS/SSSP/SSWP/SSNP use plain integer distances/widths; Viterbi uses
// Q2.30 fixed-point path probabilities (see FixedOne).
type Value int32

// Infinity and NegInfinity are the extreme values; each algorithm's
// Identity (the "no path" value) is one of them.
const (
	Infinity    Value = 1<<31 - 1
	NegInfinity Value = -(1<<31 - 1)
)

// Direction says which way values improve.
type Direction int

const (
	// Minimize: smaller values are better (BFS, SSSP, SSNP).
	Minimize Direction = iota
	// Maximize: larger values are better (SSWP, Viterbi).
	Maximize
)

// Algorithm is one monotonic vertex program. Implementations are stateless
// and safe for concurrent use.
type Algorithm interface {
	// Name returns the paper's abbreviation (e.g. "SSSP").
	Name() string
	// Direction returns the improvement direction of the value order.
	Direction() Direction
	// Identity is the worst possible value: the value of an unreached
	// vertex. Propagate is never called with uval == Identity.
	Identity() Value
	// SourceValue is the query source's initial value.
	SourceValue() Value
	// Propagate computes the value edge (u,v) with weight w offers to v,
	// given u's current value. This is the EdgeFunction of Table 3 minus
	// the MIN/MAX update, which the engine performs.
	Propagate(uval Value, w graph.Weight) Value
}

// Better reports whether a improves on b under the algorithm's direction.
func Better(a Algorithm, x, y Value) bool {
	if a.Direction() == Minimize {
		return x < y
	}
	return x > y
}

// All returns the five benchmark algorithms in the paper's order.
func All() []Algorithm {
	return []Algorithm{BFS{}, SSSP{}, SSWP{}, SSNP{}, Viterbi{}}
}

// ByName returns the named algorithm, or false.
func ByName(name string) (Algorithm, bool) {
	for _, a := range All() {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}
