package engine

import (
	"math/rand"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/graph"
)

// TestOrderedSolveSettlesOnce: on random graphs, for Table 3 and the
// extensions, the ordered Run relaxes each reached vertex's row exactly
// once — EdgesPushed is the reached vertices' out-degree sum — its side
// list stays empty, and its values are the reference fixpoint.
func TestOrderedSolveSettlesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5E77))
	for trial := 0; trial < 6; trial++ {
		n := 64 + rng.Intn(400)
		g, _ := randomGraphAndBatch(rng, n, n*(1+rng.Intn(6)), 0)
		layers := g.OutRows()
		src := graph.VertexID(rng.Intn(n))
		for _, a := range append(algo.All(), algo.Reachability{}, algo.HopLimit{K: 3}) {
			st, stats := Run(g, a, src, Options{})
			if !ValuesEqual(st, Reference(g, a, src)) {
				t.Fatalf("trial %d %s: values differ from the reference", trial, a.Name())
			}
			var settled int64
			for v := 0; v < n; v++ {
				if st.Value(graph.VertexID(v)) != a.Identity() {
					settled += int64(outDegree(layers, graph.VertexID(v)))
				}
			}
			if stats.EdgesPushed != settled {
				t.Fatalf("trial %d %s: pushed %d edges, reached vertices hold %d", trial, a.Name(), stats.EdgesPushed, settled)
			}
			q := &radixQueue{}
			runOrdered(NewState(n, a, src), []graph.VertexID{src}, layers, q)
			if q.spilled != 0 {
				t.Fatalf("trial %d %s: %d entries went to the side list", trial, a.Name(), q.spilled)
			}
		}
	}
}

// TestOrderedSolveNegativeWeights: a negative SSSP weight makes Propagate
// improve on its input, so keys fall below the last one popped. The side
// list takes them, and the pass still reaches the reference fixpoint on a
// DAG (no negative cycle, so the fixpoint exists).
func TestOrderedSolveNegativeWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(0xDA6))
	const n = 300
	var edges graph.EdgeList
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v), W: graph.Weight(rng.Intn(16) - 6)})
	}
	g := graph.NewPair(n, edges.Canonicalize())
	st := NewState(n, algo.SSSP{}, 0)
	q := &radixQueue{}
	runOrdered(st, []graph.VertexID{0}, g.OutRows(), q)
	if q.spilled == 0 {
		t.Fatal("no key fell below the last popped one: the side list was not exercised")
	}
	if !ValuesEqual(st, Reference(g, algo.SSSP{}, 0)) {
		t.Fatal("values differ from the reference")
	}
}
