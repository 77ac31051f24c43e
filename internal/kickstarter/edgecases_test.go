package kickstarter

import (
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/graph"
)

func TestDeletionWithReroute(t *testing.T) {
	// 0 -> 1 via two routes; deleting the dependence edge must reroute,
	// not disconnect: val(2) worsens from 2 to 6 but stays finite.
	edges := graph.EdgeList{
		{Src: 0, Dst: 1, W: 1},
		{Src: 1, Dst: 2, W: 1},
		{Src: 0, Dst: 2, W: 6},
		{Src: 2, Dst: 3, W: 1},
	}
	g := NewMutableGraph(4, edges)
	st, _ := engine.Run(g, algo.SSSP{}, 0, engine.Options{})
	if st.Value(2) != 2 || st.Value(3) != 3 {
		t.Fatalf("initial values wrong: %d %d", st.Value(2), st.Value(3))
	}
	del := graph.EdgeList{{Src: 1, Dst: 2, W: 1}}
	if err := g.DeleteBatch(del); err != nil {
		t.Fatal(err)
	}
	stats := IncrementalDelete(g, st, del)
	if stats.Trimmed == 0 {
		t.Fatal("dependence deletion did not trim")
	}
	if st.Value(2) != 6 || st.Value(3) != 7 {
		t.Fatalf("rerouted values wrong: %d %d", st.Value(2), st.Value(3))
	}
}

func TestDeletionOfEdgeIntoSource(t *testing.T) {
	// The source's value never depends on an edge, so deleting its
	// in-edges trims nothing.
	edges := graph.EdgeList{
		{Src: 1, Dst: 0, W: 1},
		{Src: 0, Dst: 1, W: 1},
	}
	g := NewMutableGraph(2, edges)
	st, _ := engine.Run(g, algo.BFS{}, 0, engine.Options{})
	del := graph.EdgeList{{Src: 1, Dst: 0, W: 1}}
	if err := g.DeleteBatch(del); err != nil {
		t.Fatal(err)
	}
	stats := IncrementalDelete(g, st, del)
	if stats.Trimmed != 0 {
		t.Fatalf("trimmed %d for an edge into the source", stats.Trimmed)
	}
	if st.Value(0) != 0 || st.Value(1) != 1 {
		t.Fatalf("values corrupted: %d %d", st.Value(0), st.Value(1))
	}
}

func TestTrimCascadeDepth(t *testing.T) {
	// A chain hanging off one edge: deleting the first link must trim the
	// entire downstream chain in one batch.
	const chain = 50
	edges := make(graph.EdgeList, 0, chain)
	for i := 0; i < chain; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), W: 1})
	}
	g := NewMutableGraph(chain+1, edges)
	st, _ := engine.Run(g, algo.SSSP{}, 0, engine.Options{})
	del := graph.EdgeList{{Src: 0, Dst: 1, W: 1}}
	if err := g.DeleteBatch(del); err != nil {
		t.Fatal(err)
	}
	stats := IncrementalDelete(g, st, del)
	if stats.Trimmed != chain {
		t.Fatalf("trimmed %d, want the whole %d-vertex chain", stats.Trimmed, chain)
	}
	for v := 1; v <= chain; v++ {
		if st.Value(graph.VertexID(v)) != algo.Infinity {
			t.Fatalf("vertex %d survived a severed chain", v)
		}
	}
}

func TestEmptyBatches(t *testing.T) {
	sys := New(3, graph.EdgeList{{Src: 0, Dst: 1, W: 1}}, algo.BFS{}, 0, engine.Options{})
	if err := sys.ApplyTransition(nil, nil); err != nil {
		t.Fatal(err)
	}
	if sys.State().Value(1) != 1 {
		t.Fatal("empty transition changed values")
	}
}

func TestMutationInterleavedWithQueries(t *testing.T) {
	// Values must stay exact through an interleaving of single-edge
	// transitions, matching from-scratch at every step.
	edges := graph.EdgeList{
		{Src: 0, Dst: 1, W: 2},
		{Src: 1, Dst: 2, W: 2},
		{Src: 0, Dst: 3, W: 9},
	}
	sys := New(4, edges, algo.SSSP{}, 0, engine.Options{})
	steps := []struct {
		add graph.EdgeList
		del graph.EdgeList
	}{
		{add: graph.EdgeList{{Src: 2, Dst: 3, W: 1}}},
		{del: graph.EdgeList{{Src: 0, Dst: 3, W: 9}}},
		{add: graph.EdgeList{{Src: 0, Dst: 2, W: 3}}, del: graph.EdgeList{{Src: 1, Dst: 2, W: 2}}},
	}
	for i, s := range steps {
		if err := sys.ApplyTransition(s.add, s.del); err != nil {
			t.Fatal(err)
		}
		ref := engine.Reference(sys.Graph(), algo.SSSP{}, 0)
		if !engine.ValuesEqual(sys.State(), ref) {
			t.Fatalf("step %d diverged", i)
		}
	}
	// Final graph: 0->1(2), 2->3(1), 0->2(3); dist(3) = 3 + 1.
	if got := sys.State().Value(3); got != 4 {
		t.Fatalf("final dist(3) = %d, want 4", got)
	}
}
