package delta

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"commongraph/internal/graph"
)

func mk(pairs ...[2]uint32) graph.EdgeList {
	out := make(graph.EdgeList, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, graph.Edge{Src: graph.VertexID(p[0]), Dst: graph.VertexID(p[1]), W: 1})
	}
	return out
}

func TestNewBatchCanonicalizes(t *testing.T) {
	b := NewBatch(mk([2]uint32{3, 1}, [2]uint32{0, 2}, [2]uint32{3, 1}))
	if b.Len() != 2 {
		t.Fatalf("len=%d", b.Len())
	}
	if !b.Edges().IsCanonical() {
		t.Fatal("not canonical")
	}
	if !b.Contains(3, 1) || b.Contains(1, 3) {
		t.Fatal("membership wrong")
	}
}

func TestNewBatchDoesNotAliasInput(t *testing.T) {
	in := mk([2]uint32{5, 6}, [2]uint32{1, 2})
	b := NewBatch(in)
	in[0] = graph.Edge{Src: 9, Dst: 9, W: 9}
	if b.Contains(9, 9) {
		t.Fatal("batch aliased its input")
	}
}

func TestFromCanonicalRejectsBadInput(t *testing.T) {
	if _, err := FromCanonical(mk([2]uint32{2, 0}, [2]uint32{1, 0})); err == nil {
		t.Fatal("expected error on non-canonical input")
	}
	b, err := FromCanonical(mk([2]uint32{0, 1}, [2]uint32{2, 3}))
	if err != nil || b.Len() != 2 {
		t.Fatalf("canonical input rejected: %v", err)
	}
}

func TestNilBatchIsEmpty(t *testing.T) {
	var b *Batch
	if b.Len() != 0 || b.Edges() != nil || b.Contains(0, 0) {
		t.Fatal("nil batch should behave as empty")
	}
}

func TestBatchAlgebra(t *testing.T) {
	a := NewBatch(mk([2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{2, 3}))
	b := NewBatch(mk([2]uint32{1, 2}, [2]uint32{4, 5}))
	if got := a.Minus(b); got.Len() != 2 {
		t.Fatalf("minus: %v", got.Edges())
	}
	if got := a.Union(b); got.Len() != 4 {
		t.Fatalf("union: %v", got.Edges())
	}
	if got := a.Intersect(b); got.Len() != 1 || !got.Contains(1, 2) {
		t.Fatalf("intersect: %v", got.Edges())
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Fatal("equal wrong")
	}
}

func randomEdges(r *rand.Rand, n, m int) graph.EdgeList {
	l := make(graph.EdgeList, 0, m)
	for i := 0; i < m; i++ {
		l = append(l, graph.Edge{
			Src: graph.VertexID(r.Intn(n)),
			Dst: graph.VertexID(r.Intn(n)),
			W:   graph.Weight(r.Intn(50) + 1),
		})
	}
	return l
}

// TestNetComposes: any run of transitions composed into one Net turns a
// snapshot into what the transitions make of it one at a time, weights
// included — also when the stream is not consistent with the snapshot
// (deletes of absent edges, adds of present ones, re-adds under a new
// weight), since the vertex space here is small enough to collide often.
func TestNetComposes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := randomEdges(r, 12, 60).Canonicalize()
		trs := make([]Net, r.Intn(9))
		want := base
		for i := range trs {
			trs[i] = Net{Adds: randomEdges(r, 12, r.Intn(15)).Canonicalize(), Dels: randomEdges(r, 12, r.Intn(15)).Canonicalize()}
			want = graph.Union(graph.Minus(want, trs[i].Dels), trs[i].Adds)
		}
		got := Compose(len(trs), func(t int) Net { return trs[t] }).Apply(base)
		return reflect.DeepEqual(append(graph.EdgeList{}, got...), append(graph.EdgeList{}, want...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlayGraphEqualsMaterialized(t *testing.T) {
	// base + overlays must present exactly the union of edges, in both
	// orientations — the core invariant of the mutation-free representation.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(30)
		baseEdges := randomEdges(r, n, 4*n).Canonicalize()
		base := graph.NewPair(n, baseEdges)
		// Overlay edges disjoint from base (as Δ batches always are).
		o1 := NewBatch(graph.Minus(randomEdges(r, n, n).Canonicalize(), baseEdges))
		o2e := graph.Minus(randomEdges(r, n, n).Canonicalize(), baseEdges)
		o2 := NewBatch(graph.Minus(o2e, o1.Edges()))
		og := NewOverlayGraph(base, NewOverlay(n, o1), NewOverlay(n, o2))

		want := graph.Union(graph.Union(baseEdges, o1.Edges()), o2.Edges())
		if og.NumEdges() != len(want) {
			return false
		}
		got := make(graph.EdgeList, 0, len(want))
		for u := 0; u < n; u++ {
			og.OutEdges(graph.VertexID(u), func(v graph.VertexID, w graph.Weight) {
				got = append(got, graph.Edge{Src: graph.VertexID(u), Dst: v, W: w})
			})
		}
		if !graph.Equal(got.Canonicalize(), want) {
			return false
		}
		// In-edges must mirror out-edges.
		gotIn := make(graph.EdgeList, 0, len(want))
		for v := 0; v < n; v++ {
			og.InEdges(graph.VertexID(v), func(u graph.VertexID, w graph.Weight) {
				gotIn = append(gotIn, graph.Edge{Src: u, Dst: graph.VertexID(v), W: w})
			})
		}
		return graph.Equal(gotIn.Canonicalize(), want) &&
			graph.Equal(og.Edges(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlayPushPop(t *testing.T) {
	n := 5
	base := graph.NewPair(n, mk([2]uint32{0, 1}))
	og := NewOverlayGraph(base)
	if og.Depth() != 0 || og.NumEdges() != 1 {
		t.Fatalf("depth=%d m=%d", og.Depth(), og.NumEdges())
	}
	o := NewOverlay(n, NewBatch(mk([2]uint32{1, 2}, [2]uint32{2, 3})))
	og.Push(o)
	if og.Depth() != 1 || og.NumEdges() != 3 {
		t.Fatalf("after push: depth=%d m=%d", og.Depth(), og.NumEdges())
	}
	count := 0
	og.OutEdges(1, func(v graph.VertexID, w graph.Weight) { count++ })
	if count != 1 {
		t.Fatalf("out(1)=%d", count)
	}
	og.Pop()
	if og.Depth() != 0 || og.NumEdges() != 1 {
		t.Fatalf("after pop: depth=%d m=%d", og.Depth(), og.NumEdges())
	}
	count = 0
	og.OutEdges(1, func(v graph.VertexID, w graph.Weight) { count++ })
	if count != 0 {
		t.Fatalf("out(1) after pop=%d", count)
	}
}

func TestOverlayGraphBase(t *testing.T) {
	base := graph.NewPair(3, mk([2]uint32{0, 1}))
	og := NewOverlayGraph(base)
	if og.Base() != base || og.NumVertices() != 3 {
		t.Fatal("base accessor wrong")
	}
}
