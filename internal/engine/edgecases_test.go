package engine

import (
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/graph"
)

func TestSelfLoopsAreHarmless(t *testing.T) {
	// A self loop can never strictly improve its own vertex (monotonic
	// strictness), so propagation terminates and values ignore it.
	edges := graph.EdgeList{
		{Src: 0, Dst: 0, W: 1},
		{Src: 0, Dst: 1, W: 2},
		{Src: 1, Dst: 1, W: 3},
	}
	g := graph.NewPair(2, edges)
	for _, a := range algo.All() {
		st, _ := Run(g, a, 0, Options{})
		ref := Reference(g, a, 0)
		if !ValuesEqual(st, ref) {
			t.Fatalf("%s: self loops broke the fixpoint", a.Name())
		}
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g := graph.NewPair(1, nil)
	st, stats := Run(g, algo.SSSP{}, 0, Options{})
	if st.Value(0) != 0 || st.Reached() != 1 {
		t.Fatalf("val=%d reached=%d", st.Value(0), st.Reached())
	}
	if stats.Improved != 0 {
		t.Fatalf("no edges, but %d improvements", stats.Improved)
	}
}

func TestIsolatedSource(t *testing.T) {
	edges := graph.EdgeList{{Src: 1, Dst: 2, W: 1}}
	g := graph.NewPair(3, edges)
	st, _ := Run(g, algo.BFS{}, 0, Options{})
	if st.Reached() != 1 {
		t.Fatalf("isolated source reached %d vertices", st.Reached())
	}
}

func TestSourceOnCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0: cyclic propagation must still terminate with the
	// source keeping its source value (no path improves on it).
	edges := graph.EdgeList{
		{Src: 0, Dst: 1, W: 1},
		{Src: 1, Dst: 2, W: 1},
		{Src: 2, Dst: 0, W: 1},
	}
	g := graph.NewPair(3, edges)
	for _, a := range algo.All() {
		st, _ := Run(g, a, 0, Options{})
		if st.Value(0) != a.SourceValue() {
			t.Fatalf("%s: source value corrupted to %d", a.Name(), st.Value(0))
		}
		ref := Reference(g, a, 0)
		if !ValuesEqual(st, ref) {
			t.Fatalf("%s: cycle fixpoint wrong", a.Name())
		}
	}
}

func TestIncrementalAddEmptyBatch(t *testing.T) {
	g := graph.NewPair(3, graph.EdgeList{{Src: 0, Dst: 1, W: 1}})
	st, _ := Run(g, algo.BFS{}, 0, Options{})
	before := st.Clone()
	stats := IncrementalAdd(g, st, nil, Options{})
	if stats.EdgesPushed != 0 || stats.Improved != 0 {
		t.Fatalf("empty batch did work: %+v", stats)
	}
	if !st.Equal(before) {
		t.Fatal("empty batch changed state")
	}
}

func TestIncrementalAddPartsEquivalence(t *testing.T) {
	// Splitting a batch into parts must land on the same fixpoint as the
	// whole batch at once.
	baseEdges := graph.EdgeList{
		{Src: 0, Dst: 1, W: 4},
		{Src: 1, Dst: 2, W: 4},
	}
	batch := graph.EdgeList{
		{Src: 0, Dst: 2, W: 3},
		{Src: 2, Dst: 3, W: 1},
		{Src: 0, Dst: 3, W: 9},
	}.Canonicalize()
	n := 4
	base := graph.NewPair(n, baseEdges)
	og := delta.NewOverlayGraph(base, delta.NewOverlay(n, delta.NewBatch(batch)))

	whole, _ := Run(base, algo.SSSP{}, 0, Options{})
	IncrementalAdd(og, whole, batch, Options{})

	parts, _ := Run(base, algo.SSSP{}, 0, Options{})
	IncrementalAddParts(og, parts, [][]graph.Edge{batch[:1], batch[1:]}, Options{})

	if !whole.Equal(parts) {
		t.Fatal("parts-based incremental add diverged")
	}
}

func TestReachedAndEqualDegenerate(t *testing.T) {
	a := NewState(3, algo.BFS{}, 0)
	b := NewState(4, algo.BFS{}, 0)
	if a.Equal(b) {
		t.Fatal("states of different sizes compared equal")
	}
	if a.Source() != 0 || a.Algorithm().Name() != "BFS" {
		t.Fatal("accessors wrong")
	}
	if a.NumVertices() != 3 {
		t.Fatal("size wrong")
	}
	if v, p := a.Value(0), a.Parent(0); v != 0 || p != graph.NoVertex {
		t.Fatalf("source = (%d,%d)", v, p)
	}
}
