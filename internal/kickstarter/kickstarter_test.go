package kickstarter

import (
	"testing"
	"testing/quick"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

func TestMutableGraphBasics(t *testing.T) {
	edges := graph.EdgeList{
		{Src: 0, Dst: 1, W: 2},
		{Src: 1, Dst: 2, W: 3},
	}
	g := NewMutableGraph(3, edges)
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	g.AddBatch(graph.EdgeList{{Src: 2, Dst: 0, W: 4}})
	if g.NumEdges() != 3 {
		t.Fatalf("m=%d after add", g.NumEdges())
	}
	if err := g.DeleteBatch(graph.EdgeList{{Src: 0, Dst: 1, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d after delete", g.NumEdges())
	}
	want := graph.EdgeList{{Src: 1, Dst: 2, W: 3}, {Src: 2, Dst: 0, W: 4}}
	if !graph.Equal(g.Edges(), want) {
		t.Fatalf("edges=%v", g.Edges())
	}
}

func TestDeleteAbsentEdge(t *testing.T) {
	g := NewMutableGraph(2, graph.EdgeList{{Src: 0, Dst: 1, W: 1}})
	if err := g.DeleteBatch(graph.EdgeList{{Src: 1, Dst: 0, W: 1}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestMutableGraphInOutMirror(t *testing.T) {
	f := func(seed int64) bool {
		n, base := gen.RMAT(gen.DefaultRMAT(7, 300, uint64(seed)))
		trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 3, Additions: 20, Deletions: 20, Seed: uint64(seed) + 1})
		if err != nil {
			return false
		}
		g := NewMutableGraph(n, base)
		for _, tr := range trs {
			g.AddBatch(tr.Additions)
			if err := g.DeleteBatch(tr.Deletions); err != nil {
				return false
			}
		}
		// Mutated graph must equal the reference materialization.
		want := gen.Apply(base, trs)
		if !graph.Equal(g.Edges(), want) {
			return false
		}
		// In-lists must mirror out-lists.
		outCount, inCount := 0, 0
		for v := 0; v < n; v++ {
			g.OutEdges(graph.VertexID(v), func(graph.VertexID, graph.Weight) { outCount++ })
			g.InEdges(graph.VertexID(v), func(graph.VertexID, graph.Weight) { inCount++ })
		}
		return outCount == inCount && outCount == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalDeleteMatchesScratch(t *testing.T) {
	n, base := gen.RMAT(gen.DefaultRMAT(9, 2500, 17))
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 1, Additions: 0, Deletions: 150, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	del := trs[0].Deletions
	for _, a := range algo.All() {
		g := NewMutableGraph(n, base)
		st, _ := engine.Run(g, a, 0, engine.Options{})
		if err := g.DeleteBatch(del); err != nil {
			t.Fatal(err)
		}
		IncrementalDelete(g, st, del)
		ref := engine.Reference(g, a, 0)
		if !engine.ValuesEqual(st, ref) {
			t.Fatalf("%s: trim diverged from scratch", a.Name())
		}
	}
}

func TestIncrementalDeleteNoDependence(t *testing.T) {
	// Deleting edges that justify no vertex's value must be free and
	// change nothing.
	edges := graph.EdgeList{
		{Src: 0, Dst: 1, W: 1},
		{Src: 0, Dst: 2, W: 5}, // 2 is better reached via 1 (1+1=2 < 5)? No: BFS hops. Use SSSP.
		{Src: 1, Dst: 2, W: 1},
	}
	g := NewMutableGraph(3, edges)
	st, _ := engine.Run(g, algo.SSSP{}, 0, engine.Options{})
	if st.Value(2) != 2 {
		t.Fatalf("val(2)=%d", st.Value(2))
	}
	del := graph.EdgeList{{Src: 0, Dst: 2, W: 5}} // not the parent edge of 2
	if err := g.DeleteBatch(del); err != nil {
		t.Fatal(err)
	}
	stats := IncrementalDelete(g, st, del)
	if stats.Trimmed != 0 {
		t.Fatalf("trimmed %d vertices for a non-dependence deletion", stats.Trimmed)
	}
	if st.Value(2) != 2 {
		t.Fatalf("val(2) changed to %d", st.Value(2))
	}
}

func TestIncrementalDeleteDisconnects(t *testing.T) {
	// Deleting the only path must reset downstream values to identity.
	edges := graph.EdgeList{
		{Src: 0, Dst: 1, W: 1},
		{Src: 1, Dst: 2, W: 1},
		{Src: 2, Dst: 3, W: 1},
	}
	g := NewMutableGraph(4, edges)
	st, _ := engine.Run(g, algo.BFS{}, 0, engine.Options{})
	del := graph.EdgeList{{Src: 0, Dst: 1, W: 1}}
	if err := g.DeleteBatch(del); err != nil {
		t.Fatal(err)
	}
	stats := IncrementalDelete(g, st, del)
	if stats.Trimmed != 3 {
		t.Fatalf("trimmed=%d want 3", stats.Trimmed)
	}
	for v := 1; v <= 3; v++ {
		if st.Value(graph.VertexID(v)) != algo.Infinity {
			t.Fatalf("val(%d)=%d want identity", v, st.Value(graph.VertexID(v)))
		}
	}
	if st.Value(0) != 0 {
		t.Fatal("source value must survive")
	}
}

func TestSystemStreamingMatchesScratchEveryVersion(t *testing.T) {
	// The full baseline: stream transitions, and at every snapshot the
	// state must equal a from-scratch evaluation of that snapshot.
	n, base := gen.RMAT(gen.DefaultRMAT(9, 2000, 23))
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 6, Additions: 60, Deletions: 60, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algo.All() {
		sys := New(n, base, a, 0, engine.Options{})
		for i, tr := range trs {
			if err := sys.ApplyTransition(tr.Additions, tr.Deletions); err != nil {
				t.Fatal(err)
			}
			snap := gen.Apply(base, trs[:i+1])
			ref := engine.Reference(graph.NewPair(n, snap), a, 0)
			if !engine.ValuesEqual(sys.State(), ref) {
				t.Fatalf("%s: diverged at snapshot %d", a.Name(), i+1)
			}
		}
		if sys.Cost.StreamingTotal() <= 0 {
			t.Fatalf("%s: no streaming cost recorded", a.Name())
		}
		if sys.Cost.InitialCompute <= 0 {
			t.Fatalf("%s: no initial cost recorded", a.Name())
		}
	}
}

func TestSystemDeleteErrorPropagates(t *testing.T) {
	sys := New(2, graph.EdgeList{{Src: 0, Dst: 1, W: 1}}, algo.BFS{}, 0, engine.Options{})
	if err := sys.ApplyTransition(nil, graph.EdgeList{{Src: 1, Dst: 0, W: 1}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestCostBreakdownArithmetic(t *testing.T) {
	a := CostBreakdown{MutateAdd: 1, MutateDelete: 2, IncrementalAdd: 3, IncrementalDelete: 4, InitialCompute: 5}
	b := a
	a.Add(b)
	if a.MutateAdd != 2 || a.Total() != 30 || a.StreamingTotal() != 20 {
		t.Fatalf("%+v total=%d streaming=%d", a, a.Total(), a.StreamingTotal())
	}
}

func TestStreamingRandomized(t *testing.T) {
	// Property: for random small evolving graphs, streaming with mixed
	// batches always lands on the from-scratch result (final snapshot).
	f := func(seed int64) bool {
		n, base := gen.RMAT(gen.DefaultRMAT(7, 400, uint64(seed)))
		trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 4, Additions: 25, Deletions: 25, Seed: uint64(seed) * 3})
		if err != nil {
			return false
		}
		a := algo.All()[int(uint64(seed)%5)]
		sys := New(n, base, a, 0, engine.Options{})
		for _, tr := range trs {
			if err := sys.ApplyTransition(tr.Additions, tr.Deletions); err != nil {
				return false
			}
		}
		final := gen.Apply(base, trs)
		ref := engine.Reference(graph.NewPair(n, final), a, 0)
		return engine.ValuesEqual(sys.State(), ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
