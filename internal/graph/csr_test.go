package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCSRBasics(t *testing.T) {
	edges := EdgeList{
		{Src: 0, Dst: 1, W: 5},
		{Src: 0, Dst: 2, W: 3},
		{Src: 2, Dst: 1, W: 7},
	}
	c := NewCSR(4, edges)
	if c.NumVertices() != 4 || c.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", c.NumVertices(), c.NumEdges())
	}
	if c.Degree(0) != 2 || c.Degree(1) != 0 || c.Degree(2) != 1 || c.Degree(3) != 0 {
		t.Fatalf("degrees wrong")
	}
	var got EdgeList
	c.Neighbors(0, func(v VertexID, w Weight) {
		got = append(got, Edge{Src: 0, Dst: v, W: w})
	})
	if len(got) != 2 {
		t.Fatalf("neighbors of 0: %v", got)
	}
}

func TestCSRRow(t *testing.T) {
	edges := EdgeList{{Src: 1, Dst: 3, W: 2}, {Src: 1, Dst: 0, W: 4}}
	c := NewCSR(4, edges)
	vs, ws := c.Row(1)
	if len(vs) != 2 || len(ws) != 2 {
		t.Fatalf("row lengths %d %d", len(vs), len(ws))
	}
	vs, _ = c.Row(0)
	if len(vs) != 0 {
		t.Fatalf("row 0 should be empty")
	}
}

func TestReverseCSR(t *testing.T) {
	edges := EdgeList{
		{Src: 0, Dst: 2, W: 1},
		{Src: 1, Dst: 2, W: 9},
		{Src: 2, Dst: 0, W: 4},
	}
	r := NewReverseCSR(3, edges)
	var ins []VertexID
	r.Neighbors(2, func(u VertexID, w Weight) { ins = append(ins, u) })
	if len(ins) != 2 {
		t.Fatalf("in-neighbours of 2: %v", ins)
	}
	seen := map[VertexID]bool{}
	for _, u := range ins {
		seen[u] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("in-neighbours of 2: %v", ins)
	}
}

func TestCSREdgesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		edges := randomCanonical(r, n, 3*n)
		c := NewCSR(n, edges)
		back := c.Edges().Canonicalize()
		if !Equal(back, edges) {
			return false
		}
		// Weights must survive too.
		for i := range back {
			if back[i].W != edges[i].W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPairConsistency(t *testing.T) {
	// Every out-edge (u,v) must appear as an in-edge at v with same weight.
	r := rand.New(rand.NewSource(7))
	n := 30
	edges := randomCanonical(r, n, 120)
	p := NewPair(n, edges)
	if p.NumVertices() != n || p.NumEdges() != len(edges) {
		t.Fatalf("pair sizes wrong")
	}
	type half struct {
		a, b VertexID
		w    Weight
	}
	outs := map[half]int{}
	for u := 0; u < n; u++ {
		p.OutEdges(VertexID(u), func(v VertexID, w Weight) {
			outs[half{VertexID(u), v, w}]++
		})
	}
	ins := map[half]int{}
	for v := 0; v < n; v++ {
		p.InEdges(VertexID(v), func(u VertexID, w Weight) {
			ins[half{u, VertexID(v), w}]++
		})
	}
	if len(outs) != len(ins) {
		t.Fatalf("out %d vs in %d", len(outs), len(ins))
	}
	for k, c := range outs {
		if ins[k] != c {
			t.Fatalf("edge %v: out count %d in count %d", k, c, ins[k])
		}
	}
	// The pair's reverse orientation is built from its forward CSR on the
	// first InEdges; it must be the reverse CSR of the edge list, row for
	// row and in the same order.
	want := NewReverseCSR(n, edges)
	for v := 0; v < n; v++ {
		var got, exp []half
		p.InEdges(VertexID(v), func(u VertexID, w Weight) { got = append(got, half{u, VertexID(v), w}) })
		want.Neighbors(VertexID(v), func(u VertexID, w Weight) { exp = append(exp, half{u, VertexID(v), w}) })
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("in-row %d: %v, want %v", v, got, exp)
		}
	}
}

func TestCSRNoEdgesForEmptyGraph(t *testing.T) {
	c := NewCSR(5, nil)
	if c.NumEdges() != 0 {
		t.Fatal("expected zero edges")
	}
	for u := 0; u < 5; u++ {
		if c.Degree(VertexID(u)) != 0 {
			t.Fatalf("vertex %d degree %d", u, c.Degree(VertexID(u)))
		}
	}
}
