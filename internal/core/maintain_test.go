package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
	"commongraph/internal/snapshot"
)

// sameEdges compares two canonical lists edge for edge, weights included.
func sameEdges(a, b graph.EdgeList) bool {
	return reflect.DeepEqual(append(graph.EdgeList{}, a...), append(graph.EdgeList{}, b...))
}

// repEqual compares a maintained representation against a from-scratch
// BuildRep of the same window, weights included.
func repEqual(t *testing.T, got, want *Rep) bool {
	t.Helper()
	if got.Window != want.Window {
		t.Logf("window %+v vs %+v", got.Window, want.Window)
		return false
	}
	// A maintained Rep lists no common graph: its base rows, read back,
	// must be the rebuilt common list, weights included.
	if common := got.Base.Out.Edges(); !sameEdges(common, want.Common) {
		t.Logf("common differs: %d vs %d edges", len(common), len(want.Common))
		return false
	}
	if len(got.Deltas) != len(want.Deltas) {
		return false
	}
	for k := range got.Deltas {
		if !sameEdges(got.Deltas[k].Edges(), want.Deltas[k].Edges()) {
			t.Logf("delta %d differs", k)
			return false
		}
	}
	if got.Base.NumEdges() != len(want.Common) {
		t.Logf("base counts %d edges, want %d", got.Base.NumEdges(), len(want.Common))
		return false
	}
	return true
}

func TestMaintainedAppendMatchesRebuild(t *testing.T) {
	s, _ := randomStore(101, 8, 40, 40)
	m, err := NewMaintainedRep(Window{Store: s, From: 0, To: 2})
	if err != nil {
		t.Fatal(err)
	}
	for to := 3; to <= 8; to++ {
		if err := m.Append(); err != nil {
			t.Fatal(err)
		}
		want, err := BuildRep(Window{Store: s, From: 0, To: to})
		if err != nil {
			t.Fatal(err)
		}
		if !repEqual(t, m.Rep(), want) {
			t.Fatalf("append to %d diverged from rebuild", to)
		}
	}
	if err := m.Append(); err == nil {
		t.Fatal("append past the store's last version should fail")
	}
}

func TestMaintainedAdvanceMatchesRebuild(t *testing.T) {
	s, _ := randomStore(103, 8, 40, 40)
	m, err := NewMaintainedRep(Window{Store: s, From: 0, To: 8})
	if err != nil {
		t.Fatal(err)
	}
	for from := 1; from <= 8; from++ {
		if err := m.Advance(); err != nil {
			t.Fatal(err)
		}
		want, err := BuildRep(Window{Store: s, From: from, To: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !repEqual(t, m.Rep(), want) {
			t.Fatalf("advance to %d diverged from rebuild", from)
		}
	}
	// The window is now the single snapshot [8,8].
	if err := m.Advance(); err == nil {
		t.Fatal("advancing a single-snapshot window should fail")
	}
}

func TestMaintainedSlideProperty(t *testing.T) {
	// Random mixes of Append/Advance/Slide always equal a rebuild.
	f := func(seed int64) bool {
		s, _ := randomStore(uint64(seed), 10, 30, 30)
		m, err := NewMaintainedRep(Window{Store: s, From: 0, To: 3})
		if err != nil {
			return false
		}
		ops := uint64(seed)
		for i := 0; i < 6; i++ {
			switch ops % 3 {
			case 0:
				if m.Window().To+1 < s.NumVersions() {
					if err := m.Append(); err != nil {
						return false
					}
				}
			case 1:
				if m.Window().Width() > 1 {
					if err := m.Advance(); err != nil {
						return false
					}
				}
			default:
				if m.Window().To+1 < s.NumVersions() && m.Window().Width() > 0 {
					if err := m.Slide(); err != nil {
						return false
					}
				}
			}
			ops /= 3
			want, err := BuildRep(m.Window())
			if err != nil {
				return false
			}
			if !repEqual(t, m.Rep(), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainedSlideStream slides a 16-wide window 200 times over a
// seeded stream and holds every slide to a fresh BuildRep. The stream
// re-adds half of what each transition deleted one transition later,
// under a new weight; every tenth transition only adds (nothing leaves
// the common graph when it is appended) or only deletes (nothing is
// promoted when the window start passes it), and where the two coincide
// the base is carried over as it is.
func TestMaintainedSlideStream(t *testing.T) {
	const width, slides = 16, 200
	n, base := gen.RMAT(gen.DefaultRMAT(8, 900, 211))
	r := gen.NewRNG(212)
	s := snapshot.NewStore(n, base)
	head := base.Clone().Canonicalize()
	var gone graph.EdgeList
	addsOnly := func(t int) bool { return t%10 == 5 || t%10 == 7 }
	delsOnly := func(t int) bool { return t%10 == 0 || t%10 == 3 }
	commit := func(tr int) {
		var adds, dels graph.EdgeList
		if !addsOnly(tr) {
			for i := 0; i < 12; i++ {
				dels = append(dels, head[r.Intn(len(head))])
			}
		}
		if !delsOnly(tr) {
			for len(adds) < 8 {
				e := graph.Edge{Src: graph.VertexID(r.Intn(n)), Dst: graph.VertexID(r.Intn(n)), W: graph.Weight(1 + r.Intn(90))}
				if !head.Contains(e.Src, e.Dst) {
					adds = append(adds, e)
				}
			}
			for i, e := range gone {
				if i%2 == 0 {
					adds = append(adds, graph.Edge{Src: e.Src, Dst: e.Dst, W: e.W + 100})
				}
			}
		}
		adds, dels = adds.Canonicalize(), dels.Canonicalize()
		if _, err := s.NewVersion(adds, dels); err != nil {
			t.Fatalf("transition %d: %v", tr, err)
		}
		head, gone = graph.Union(graph.Minus(head, dels), adds), dels
	}
	for tr := 0; tr < width-1; tr++ {
		commit(tr)
	}
	m, err := NewMaintainedRep(Window{Store: s, From: 0, To: width - 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slides; i++ {
		commit(width - 1 + i) // the transition this slide appends; it drops transition i
		before := m.Rep()
		beforeCommon := before.Base.Out.Edges()
		if err := m.Slide(); err != nil {
			t.Fatal(err)
		}
		got := m.Rep()
		want, err := BuildRep(m.Window())
		if err != nil {
			t.Fatal(err)
		}
		if !repEqual(t, got, want) {
			t.Fatalf("slide %d diverged from rebuild", i)
		}
		// i%10 == 2: nothing leaves; 3: nothing is promoted; 0: neither.
		if addsOnly(width-1+i) && delsOnly(i) && got.Base != before.Base {
			t.Fatalf("slide %d left the common graph as it was and still rebuilt the base", i)
		}
		if !sameEdges(before.Base.Out.Edges(), beforeCommon) {
			t.Fatalf("slide %d wrote into the representation it replaced", i)
		}
		if i == 0 || i == slides/2 || i == slides-1 {
			res, err := DirectHop(got, Config{Algo: algo.SSSP{}, Source: 0, KeepValues: true})
			if err != nil {
				t.Fatal(err)
			}
			for k := range res.Snapshots {
				snap, _ := s.GetVersion(got.Window.From + k)
				if !reflect.DeepEqual(res.Snapshots[k].Values, referenceSSSP(n, snap)) {
					t.Fatalf("slide %d snapshot %d differs from engine.Reference", i, k)
				}
			}
		}
	}
}

func TestMaintainedRepEvaluates(t *testing.T) {
	// The maintained representation must be directly usable by the
	// evaluators after sliding.
	s, n := randomStore(107, 8, 40, 40)
	m, err := NewMaintainedRep(Window{Store: s, From: 0, To: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Slide(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := DirectHop(m.Rep(), Config{Algo: algo.SSSP{}, Source: 0, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	w := m.Window()
	for k := 0; k < w.Width(); k++ {
		snap, _ := s.GetVersion(w.From + k)
		ref := engineReference(n, snap)
		for v := 0; v < n; v++ {
			if res.Snapshots[k].Values[v] != ref[v] {
				t.Fatalf("snapshot %d vertex %d differs", k, v)
			}
		}
	}
}

// engineReference is a tiny local oracle wrapper (SSSP from vertex 0).
func engineReference(n int, edges graph.EdgeList) []algo.Value {
	return referenceSSSP(n, edges)
}

// referenceSSSP runs the engine's oracle for SSSP from vertex 0.
func referenceSSSP(n int, edges graph.EdgeList) []algo.Value {
	return engine.Reference(graph.NewPair(n, edges), algo.SSSP{}, 0)
}
