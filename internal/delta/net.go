package delta

import "commongraph/internal/graph"

// Net is a run of consecutive transitions composed into one: applying it
// to the snapshot before the first yields the snapshot after the last
// ("On Graph Deltas for Historical Queries": deltas compose). Dels leave
// first, then Adds join, an added edge the snapshot still holds keeping
// the snapshot's weight — the rule of one transition, so a Net replays
// exactly what its transitions would have, one at a time, on any
// snapshot. An edge deleted and later re-added is in both lists, with the
// weight of the re-add. Both lists are canonical and immutable.
type Net struct {
	Adds, Dels graph.EdgeList
}

// Then returns the composition of n followed by o. Only the two deltas
// are read, never a snapshot.
func (n Net) Then(o Net) Net {
	return Net{
		Adds: graph.Union(graph.Minus(n.Adds, o.Dels), o.Adds),
		Dels: graph.Union(n.Dels, o.Dels),
	}
}

// Compose returns transitions 0..k-1 as one Net, composing them as a
// balanced tree so every edge is copied O(log k) times.
func Compose(k int, transition func(t int) Net) Net {
	return compose(0, k, transition)
}

func compose(lo, hi int, transition func(t int) Net) Net {
	switch hi - lo {
	case 0:
		return Net{}
	case 1:
		return transition(lo)
	}
	mid := lo + (hi-lo)/2
	return compose(lo, mid, transition).Then(compose(mid, hi, transition))
}

// Apply returns the snapshot n turns base into, in one pass over base.
func (n Net) Apply(base graph.EdgeList) graph.EdgeList {
	return graph.Patch(base, n.Dels, n.Adds)
}
