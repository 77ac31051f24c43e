package engine

import (
	"commongraph/internal/delta"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
)

// IncrementalAdd updates st for a batch of edge additions (Algorithm 2 of
// the paper). g must already present the batch (for the CommonGraph system
// that means the overlay has been pushed; for KickStarter the adjacency
// has been mutated). Each added edge is applied once to seed destinations,
// then the scheduler propagates to fixpoint.
//
// For monotonic algorithms additions can only improve values, so no
// invalidation is needed — this is the cheap path the paper contrasts with
// deletion trimming.
func IncrementalAdd(g delta.Graph, st *State, batch graph.EdgeList, opt Options) Stats {
	return IncrementalAddParts(g, st, [][]graph.Edge{batch}, opt)
}

// IncrementalAddParts is IncrementalAdd for a batch supplied as several
// disjoint parts (e.g. the merged Triangular Grid labels a compressed
// schedule edge spans): all parts seed together and a single propagation
// pass runs to fixpoint.
func IncrementalAddParts(g delta.Graph, st *State, parts [][]graph.Edge, opt Options) Stats {
	batchLen := 0
	for _, batch := range parts {
		batchLen += len(batch)
	}
	sp := opt.Span.StartChild("engine.incremental", obs.Int("batch", batchLen))
	seed, stats := seedParts(st, parts, batchLen)
	if seed != nil {
		stats.Add(propagate(g, st, seed, opt))
	}
	sp.SetAttr(statAttrs(stats)...)
	sp.End()
	return stats
}

// seedParts applies every added edge once. Seeding is a single-writer
// phase: plain stores, and the improved destinations go straight into the
// pass's frontier, whose list is sized once from the batch. The frontier
// is nil when no edge improved its destination.
func seedParts(st *State, parts [][]graph.Edge, batchLen int) (*frontier, Stats) {
	var stats Stats
	var seed *frontier
	id, min := st.a.Identity(), st.minimize()
	for _, batch := range parts {
		for _, e := range batch {
			uval := st.Value(e.Src)
			if uval == id {
				continue
			}
			stats.EdgesPushed++
			cand := st.a.Propagate(uval, e.W)
			if st.improveSeq(e.Dst, cand, e.Src, min) {
				stats.Improved++
				if seed == nil {
					seed = newFrontier(st.NumVertices())
					seed.reserve(batchLen)
				}
				seed.setSeq(e.Dst)
			}
		}
	}
	return seed, stats
}
