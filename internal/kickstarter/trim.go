package kickstarter

import (
	"commongraph/internal/delta"
	"commongraph/internal/engine"
	"commongraph/internal/graph"
)

// IncrementalDelete updates st for a batch of edge deletions using
// KickStarter's trimmed-approximation strategy. g must already have the
// batch removed (mutation happens first). Steps:
//
//  1. Every vertex whose dependence parent edge was deleted is unsafe.
//  2. The unsafe set closes over the dependence tree (children of unsafe
//     vertices are unsafe) — the "trim".
//  3. Unsafe vertices are reset to the identity, then re-seeded from their
//     surviving safe in-neighbours, and propagation runs to fixpoint.
//
// Safe vertices keep their values: their justifying path avoids deleted
// edges entirely, so the value is still achievable and, by monotonicity,
// still optimal. This whole procedure — subtree discovery, resets,
// reseeding against in-edges, and a fresh propagation — is why deletions
// cost a multiple of additions (Figure 1, top).
func IncrementalDelete(g delta.Graph, st *engine.State, batch graph.EdgeList) engine.Stats {
	var stats engine.Stats
	n := st.NumVertices()
	a := st.Algorithm()
	id := a.Identity()

	// Step 1: directly unsafe vertices.
	unsafeSet := make([]bool, n)
	work := make([]graph.VertexID, 0, len(batch))
	for _, e := range batch {
		if st.Parent(e.Dst) == e.Src && !unsafeSet[e.Dst] {
			unsafeSet[e.Dst] = true
			work = append(work, e.Dst)
		}
	}
	if len(work) == 0 {
		return stats
	}

	// Step 2: close over the dependence tree. Build the children index
	// once (O(V)), then BFS through it.
	childHead := make([]int32, n)
	childNext := make([]int32, n)
	for i := range childHead {
		childHead[i] = -1
	}
	for v := 0; v < n; v++ {
		p := st.Parent(graph.VertexID(v))
		if p != graph.NoVertex {
			childNext[v] = childHead[p]
			childHead[p] = int32(v)
		}
	}
	for i := 0; i < len(work); i++ {
		u := work[i]
		for c := childHead[u]; c != -1; c = childNext[c] {
			if !unsafeSet[c] {
				unsafeSet[c] = true
				work = append(work, graph.VertexID(c))
			}
		}
	}

	// Step 3: reset, reseed from safe in-neighbours, propagate.
	for _, v := range work {
		st.Reset(v, id, graph.NoVertex)
	}
	seeds := make([]graph.VertexID, 0, len(work))
	for _, v := range work {
		improved := false
		g.InEdges(v, func(u graph.VertexID, w graph.Weight) {
			stats.EdgesPushed++
			if unsafeSet[u] {
				return
			}
			uval := st.Value(u)
			if uval == id {
				return
			}
			if st.TryImprove(v, a.Propagate(uval, w), u) {
				stats.Improved++
				improved = true
			}
		})
		if improved {
			seeds = append(seeds, v)
		}
	}
	if len(seeds) > 0 {
		s := engine.Propagate(g, st, seeds)
		stats.Add(s)
	}
	stats.Trimmed = int64(len(work))
	return stats
}
