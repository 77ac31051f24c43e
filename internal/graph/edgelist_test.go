package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func el(pairs ...[2]uint32) EdgeList {
	out := make(EdgeList, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, Edge{Src: VertexID(p[0]), Dst: VertexID(p[1]), W: 1})
	}
	return out
}

func TestCanonicalize(t *testing.T) {
	l := el([2]uint32{2, 1}, [2]uint32{0, 5}, [2]uint32{2, 1}, [2]uint32{0, 3})
	c := l.Canonicalize()
	want := el([2]uint32{0, 3}, [2]uint32{0, 5}, [2]uint32{2, 1})
	if !Equal(c, want) {
		t.Fatalf("got %v want %v", c, want)
	}
	if !c.IsCanonical() {
		t.Fatal("result not canonical")
	}
}

func TestCanonicalizeEmpty(t *testing.T) {
	var l EdgeList
	if got := l.Canonicalize(); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestCanonicalizeKeepsFirstWeight(t *testing.T) {
	l := EdgeList{{Src: 1, Dst: 2, W: 7}, {Src: 1, Dst: 2, W: 9}}
	c := l.Canonicalize()
	if len(c) != 1 {
		t.Fatalf("len=%d", len(c))
	}
	// Sort is not stable across equal keys in general, but both weights
	// identify the same edge; only endpoints matter for identity.
	if c[0].Src != 1 || c[0].Dst != 2 {
		t.Fatalf("got %v", c[0])
	}
}

func TestMinus(t *testing.T) {
	a := el([2]uint32{0, 1}, [2]uint32{0, 2}, [2]uint32{1, 2}, [2]uint32{3, 0})
	b := el([2]uint32{0, 2}, [2]uint32{2, 2}, [2]uint32{3, 0})
	got := Minus(a, b)
	want := el([2]uint32{0, 1}, [2]uint32{1, 2})
	if !Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestUnionIntersect(t *testing.T) {
	a := el([2]uint32{0, 1}, [2]uint32{1, 2})
	b := el([2]uint32{0, 1}, [2]uint32{2, 3})
	u := Union(a, b)
	wantU := el([2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{2, 3})
	if !Equal(u, wantU) {
		t.Fatalf("union got %v want %v", u, wantU)
	}
	i := Intersect(a, b)
	wantI := el([2]uint32{0, 1})
	if !Equal(i, wantI) {
		t.Fatalf("intersect got %v want %v", i, wantI)
	}
}

func TestIntersectGallop(t *testing.T) {
	// Either side at least gallopRatio times shorter is searched for in
	// the other; the result, a's weights included, is what the merge
	// Intersect otherwise runs (intersectMerge) gives on the same lists.
	r := rand.New(rand.NewSource(11))
	for _, c := range []struct{ a, b int }{
		{0, 0}, {0, 500}, {500, 0}, {1, 1}, {1, 32}, {32, 1},
		{3, 500}, {500, 3}, {10, 319}, {10, 320}, {320, 10}, {40, 4000},
		{4000, 40}, {200, 200}, {300, 500},
	} {
		for rep := 0; rep < 20; rep++ {
			// A small vertex space, so the lists overlap a lot, and
			// different weights on the two sides.
			a, b := randomCanonical(r, 70, c.a), randomCanonical(r, 70, c.b)
			got, want := Intersect(a, b), intersectMerge(EdgeList{}, a, b)
			if !reflect.DeepEqual(append(EdgeList{}, got...), want) {
				t.Fatalf("|a|=%d |b|=%d: got %v, merge gives %v", len(a), len(b), got, want)
			}
		}
	}
}

func TestContains(t *testing.T) {
	a := el([2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{5, 9})
	if !a.Contains(1, 2) {
		t.Fatal("missing 1->2")
	}
	if a.Contains(1, 3) {
		t.Fatal("phantom 1->3")
	}
	if a.Contains(9, 5) {
		t.Fatal("phantom 9->5")
	}
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	cases := [][2]VertexID{{0, 0}, {1, 2}, {NoVertex - 1, 7}, {12345, 678910}}
	for _, c := range cases {
		k := MakeKey(c[0], c[1])
		if k.Src() != c[0] || k.Dst() != c[1] {
			t.Fatalf("round trip failed for %v: got (%d,%d)", c, k.Src(), k.Dst())
		}
	}
}

// randomCanonical builds a random canonical edge list over n vertices.
func randomCanonical(r *rand.Rand, n, m int) EdgeList {
	l := make(EdgeList, 0, m)
	for i := 0; i < m; i++ {
		l = append(l, Edge{
			Src: VertexID(r.Intn(n)),
			Dst: VertexID(r.Intn(n)),
			W:   Weight(r.Intn(100) + 1),
		})
	}
	return l.Canonicalize()
}

func TestSetAlgebraProperties(t *testing.T) {
	// For random canonical a, b:
	//   (a \ b) ∪ (a ∩ b) == a
	//   a ∩ b == b ∩ a  (by endpoints)
	//   (a ∪ b) \ b == a \ b
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomCanonical(r, 40, 80)
		b := randomCanonical(r, 40, 80)
		if !Equal(Union(Minus(a, b), Intersect(a, b)), a) {
			return false
		}
		if !Equal(Intersect(a, b), Intersect(b, a)) {
			return false
		}
		if !Equal(Minus(Union(a, b), b), Minus(a, b)) {
			return false
		}
		// Patch is Minus then Union in one pass, weights included, whether
		// the change is small against the list or as big as it.
		for _, c := range []struct{ remove, add EdgeList }{
			{b, randomCanonical(r, 40, 80)},
			{randomCanonical(r, 40, 3), randomCanonical(r, 40, 3)},
			{nil, b}, {b, nil}, {nil, nil}, {a, b},
		} {
			want := Union(Minus(a, c.remove), c.add)
			if got := Patch(a, c.remove, c.add); !reflect.DeepEqual(append(EdgeList{}, got...), append(EdgeList{}, want...)) {
				return false
			}
		}
		// UnionAll is the left fold of Union, weights included: the
		// earliest list's copy of an edge wins.
		lists := make([]EdgeList, r.Intn(7))
		fold := EdgeList{}
		for i := range lists {
			lists[i] = randomCanonical(r, 40, 30)
			fold = Union(fold, lists[i])
		}
		if !reflect.DeepEqual(UnionAll(lists...), fold) {
			return false
		}
		// IntersectAll is the left fold of Intersect, weights included: the
		// first list's copy of an edge wins. The lists overlap heavily, so
		// the fold is rarely empty before the last list.
		inter := make([]EdgeList, 1+r.Intn(6))
		for i := range inter {
			inter[i] = Union(randomCanonical(r, 6, 20), randomCanonical(r, 40, 30))
		}
		ifold := inter[0]
		for _, l := range inter[1:] {
			ifold = Intersect(ifold, l)
		}
		if got := IntersectAll(inter...); !reflect.DeepEqual(append(EdgeList{}, got...), append(EdgeList{}, ifold...)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetOpsPreserveCanonical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomCanonical(r, 30, 60)
		b := randomCanonical(r, 30, 60)
		return Minus(a, b).IsCanonical() &&
			Union(a, b).IsCanonical() &&
			Intersect(a, b).IsCanonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMinusDisjointAndSelf(t *testing.T) {
	a := el([2]uint32{0, 1}, [2]uint32{1, 2})
	if got := Minus(a, a); len(got) != 0 {
		t.Fatalf("a\\a = %v", got)
	}
	b := el([2]uint32{4, 5})
	if got := Minus(a, b); !Equal(got, a) {
		t.Fatalf("a\\disjoint = %v", got)
	}
}

func TestKeySet(t *testing.T) {
	a := el([2]uint32{0, 1}, [2]uint32{1, 2})
	s := a.KeySet()
	if len(s) != 2 {
		t.Fatalf("len=%d", len(s))
	}
	if _, ok := s[MakeKey(0, 1)]; !ok {
		t.Fatal("missing key 0->1")
	}
}

func TestMaxVertex(t *testing.T) {
	if got := (EdgeList{}).MaxVertex(); got != -1 {
		t.Fatalf("empty MaxVertex=%d", got)
	}
	a := el([2]uint32{0, 9}, [2]uint32{4, 2})
	if got := a.MaxVertex(); got != 9 {
		t.Fatalf("MaxVertex=%d", got)
	}
}
