package engine

import (
	"reflect"
	"strings"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
)

func testGraph(seed uint64, scale, m int) (*graph.Pair, int) {
	n, edges := gen.RMAT(gen.DefaultRMAT(scale, m, seed))
	return graph.NewPair(n, edges), n
}

func TestRunMatchesReferenceAllAlgorithms(t *testing.T) {
	g, _ := testGraph(1, 9, 3000)
	src := graph.VertexID(0)
	for _, a := range algo.All() {
		for _, x := range engineVariants() {
			st, stats := x.solve(g, a, src)
			ref := Reference(g, a, src)
			if !ValuesEqual(st, ref) {
				t.Fatalf("%s %s: values differ from reference", a.Name(), x.name)
			}
			if stats.EdgesPushed == 0 {
				t.Fatalf("%s: no work recorded", a.Name())
			}
		}
	}
}

// TestAutoModePolicies pins the input policy: a from-scratch solve runs
// the ordered pass (no iterations), and an incremental pass drains the
// async worklist (no iterations) when its batch seeds at most asyncCutoff
// vertices and runs sync above that. Each pass's span names the mode it
// ran.
func TestAutoModePolicies(t *testing.T) {
	const n = 4096
	base := graph.NewPair(n, nil)
	tr := obs.New(obs.WithFlightRecorder(nil))
	root := tr.StartSpan("test")
	if _, stats := Run(base, algo.BFS{}, 0, Options{Span: root}); stats.Iterations != 0 {
		t.Fatalf("from-scratch run ran %d sync iterations", stats.Iterations)
	}
	for _, k := range []int{1, asyncCutoff, asyncCutoff + 1} {
		// Every edge of the batch improves its own destination.
		batch := make(graph.EdgeList, k)
		for i := range batch {
			batch[i] = graph.Edge{Src: 0, Dst: graph.VertexID(i + 1), W: 1}
		}
		og := delta.NewOverlayGraph(base, delta.NewOverlay(n, delta.NewBatch(batch)))
		st, _ := Run(base, algo.BFS{}, 0, Options{})
		if stats := IncrementalAdd(og, st, batch, Options{Span: root}); (stats.Iterations == 0) != (k <= asyncCutoff) {
			t.Fatalf("%d seeds ran %d sync iterations", k, stats.Iterations)
		}
	}
	root.End()
	var modes []string
	for _, e := range tr.Events() {
		if strings.HasPrefix(e.Name, "engine.") {
			modes = append(modes, e.Attr("mode"))
		}
	}
	if want := []string{"ordered", "async", "async", "sync"}; !reflect.DeepEqual(modes, want) {
		t.Fatalf("span modes %v, want %v", modes, want)
	}
}

func TestUnreachableVerticesKeepIdentity(t *testing.T) {
	// 0->1, isolated 2.
	edges := graph.EdgeList{{Src: 0, Dst: 1, W: 3}}
	g := graph.NewPair(3, edges)
	st, _ := Run(g, algo.SSSP{}, 0, Options{})
	if st.Value(1) != 3 {
		t.Fatalf("val(1)=%d", st.Value(1))
	}
	if st.Value(2) != algo.Infinity {
		t.Fatalf("val(2)=%d", st.Value(2))
	}
	if st.Reached() != 2 {
		t.Fatalf("reached=%d", st.Reached())
	}
}

func TestParentInvariant(t *testing.T) {
	// For every reached non-source vertex v, parent p must be a real
	// in-neighbour and propagating p's value along that edge must yield
	// exactly v's value — the dependence-tree invariant trimming relies on.
	g, n := testGraph(4, 9, 4000)
	for _, a := range algo.All() {
		st, _ := Run(g, a, 0, Options{})
		for v := 0; v < n; v++ {
			val := st.Value(graph.VertexID(v))
			p := st.Parent(graph.VertexID(v))
			if v == 0 || val == a.Identity() {
				if v == 0 && p != graph.NoVertex {
					t.Fatalf("%s: source has parent %d", a.Name(), p)
				}
				continue
			}
			if p == graph.NoVertex {
				t.Fatalf("%s: reached vertex %d has no parent", a.Name(), v)
			}
			found := false
			g.InEdges(graph.VertexID(v), func(u graph.VertexID, w graph.Weight) {
				if u == p && a.Propagate(st.Value(u), w) == val {
					found = true
				}
			})
			if !found {
				t.Fatalf("%s: vertex %d value %d not justified by parent %d", a.Name(), v, val, p)
			}
		}
	}
}

func TestIncrementalAddMatchesScratch(t *testing.T) {
	n, base := gen.RMAT(gen.DefaultRMAT(9, 2500, 5))
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 1, Additions: 120, Deletions: 0, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	add := trs[0].Additions
	basePair := graph.NewPair(n, base)
	for _, a := range algo.All() {
		st, _ := Run(basePair, a, 0, Options{})
		og := delta.NewOverlayGraph(basePair, delta.NewOverlay(n, delta.NewBatch(add)))
		IncrementalAdd(og, st, add, Options{})
		ref := Reference(og, a, 0)
		if !ValuesEqual(st, ref) {
			t.Fatalf("%s: incremental add diverged from scratch", a.Name())
		}
	}
}

func TestIncrementalAddBothModes(t *testing.T) {
	n, base := gen.RMAT(gen.DefaultRMAT(9, 2500, 8))
	trs, _ := gen.Stream(n, base, gen.StreamConfig{Transitions: 1, Additions: 200, Deletions: 0, Seed: 9})
	add := trs[0].Additions
	basePair := graph.NewPair(n, base)
	og := delta.NewOverlayGraph(basePair, delta.NewOverlay(n, delta.NewBatch(add)))
	ref := Reference(og, algo.SSWP{}, 0)
	for _, x := range engineVariants() {
		st, _ := Run(basePair, algo.SSWP{}, 0, Options{})
		x.add(og, st, add)
		if !ValuesEqual(st, ref) {
			t.Fatalf("%s diverged", x.name)
		}
	}
}

func TestIncrementalAddFromUnreachedSource(t *testing.T) {
	// Additions whose sources are unreached must not propagate identity.
	edges := graph.EdgeList{{Src: 0, Dst: 1, W: 1}}
	g := graph.NewPair(4, edges)
	st, _ := Run(g, algo.BFS{}, 0, Options{})
	add := graph.EdgeList{{Src: 2, Dst: 3, W: 1}}.Canonicalize()
	og := delta.NewOverlayGraph(g, delta.NewOverlay(4, delta.NewBatch(add)))
	IncrementalAdd(og, st, add, Options{})
	if st.Value(3) != algo.Infinity {
		t.Fatalf("val(3)=%d, identity must not propagate", st.Value(3))
	}
}

func TestCloneIndependence(t *testing.T) {
	g, _ := testGraph(7, 8, 1000)
	st, _ := Run(g, algo.BFS{}, 0, Options{})
	c := st.Clone()
	if !st.Equal(c) {
		t.Fatal("clone differs")
	}
	c.Reset(1, 0, graph.NoVertex)
	if st.Value(1) == 0 && st.Parent(1) == graph.NoVertex && c.Value(1) == st.Value(1) {
		t.Fatal("clone aliases original")
	}
	if st.Equal(c) == (st.Value(1) != 0) {
		t.Fatal("Equal did not detect divergence")
	}
}

func TestStatePackUnpack(t *testing.T) {
	cases := []struct {
		v algo.Value
		p graph.VertexID
	}{
		{0, 0},
		{algo.Infinity, graph.NoVertex},
		{algo.NegInfinity, 12345},
		{-7, 1},
		{algo.FixedOne, 99},
	}
	for _, c := range cases {
		v, p := unpack(pack(c.v, c.p))
		if v != c.v || p != c.p {
			t.Fatalf("pack/unpack (%d,%d) -> (%d,%d)", c.v, c.p, v, p)
		}
	}
}

func TestValuesSnapshot(t *testing.T) {
	g, n := testGraph(9, 7, 400)
	st, _ := Run(g, algo.BFS{}, 0, Options{})
	vals := st.Values()
	if len(vals) != n {
		t.Fatalf("len=%d", len(vals))
	}
	for i, v := range vals {
		if v != st.Value(graph.VertexID(i)) {
			t.Fatalf("values[%d] mismatch", i)
		}
	}
}

func TestFrontierOps(t *testing.T) {
	f := newFrontier(130)
	if !f.empty() || f.count() != 0 {
		t.Fatal("new frontier not empty")
	}
	f.set(0)
	f.set(64)
	f.set(129)
	f.set(129) // idempotent
	if f.count() != 3 || f.empty() {
		t.Fatalf("count=%d", f.count())
	}
	if !f.isSparse() || len(f.list()) != 3 {
		t.Fatalf("expected exact sparse list, got dense=%v list=%v", !f.isSparse(), f.list())
	}
	if !f.has(64) || f.has(63) {
		t.Fatal("membership wrong")
	}
	var got []graph.VertexID
	f.forEach(func(v graph.VertexID) { got = append(got, v) })
	if len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Fatalf("iterate got %v", got)
	}
	f.clear()
	if !f.empty() {
		t.Fatal("clear failed")
	}
	f.set(5)
	if !f.isSparse() || f.count() != 1 || !f.has(5) {
		t.Fatal("set after clear failed")
	}
	f.clear()
	if f.has(5) || !f.empty() {
		t.Fatal("sparse clear failed")
	}
}

// TestFrontierSwitchover pins the sparse→dense representation switch: past
// n/sparseKeepDenom active vertices the exact list is dropped and the
// frontier reports dense, while membership stays authoritative in the
// bitset throughout.
func TestFrontierSwitchover(t *testing.T) {
	const n = 16 * 10 // threshold at 10 vertices
	f := newFrontier(n)
	limit := n / sparseKeepDenom
	for v := 0; v < limit; v++ {
		f.set(graph.VertexID(v))
		if !f.isSparse() {
			t.Fatalf("dropped to dense at %d (limit %d)", v+1, limit)
		}
	}
	f.set(graph.VertexID(limit)) // crosses len*16 > n
	if f.isSparse() {
		t.Fatal("expected dense past threshold")
	}
	if f.count() != limit+1 {
		t.Fatalf("dense count=%d want %d", f.count(), limit+1)
	}
	for v := 0; v <= limit; v++ {
		if !f.has(graph.VertexID(v)) {
			t.Fatalf("lost membership of %d after switchover", v)
		}
	}
	f.set(graph.VertexID(limit)) // idempotent while dense
	if f.count() != limit+1 {
		t.Fatal("dense set not idempotent")
	}
	f.clear()
	if !f.empty() || !f.isSparse() {
		t.Fatal("clear must reset to sparse")
	}
}

func TestStatsAccumulate(t *testing.T) {
	a := Stats{Iterations: 1, EdgesPushed: 10, Improved: 2}
	a.Add(Stats{Iterations: 2, EdgesPushed: 5, Improved: 1})
	if a.Iterations != 3 || a.EdgesPushed != 15 || a.Improved != 3 {
		t.Fatalf("%+v", a)
	}
}

// TestSummaryMatchesSeparateScans: the one-pass Summary is Reached, Values
// and the FNV-1a fold over Value(v) — the checksum's definition — exactly.
func TestSummaryMatchesSeparateScans(t *testing.T) {
	n, edges := gen.RMAT(gen.DefaultRMAT(10, 6000, 5))
	for _, a := range algo.All() {
		st, _ := Run(graph.NewPair(n, edges), a, 3, Options{})
		want := uint64(14695981039346656037)
		for v := 0; v < n; v++ {
			want ^= uint64(uint32(st.Value(graph.VertexID(v))))
			want *= 1099511628211
		}
		reached, sum, values := st.Summary(true)
		if reached != st.Reached() || sum != want || !reflect.DeepEqual(values, st.Values()) {
			t.Fatalf("%s: Summary = (%d, %x), separate scans (%d, %x)", a.Name(), reached, sum, st.Reached(), want)
		}
		if _, sum, values := st.Summary(false); sum != want || values != nil {
			t.Fatalf("%s: Summary(false) = %x with %d values", a.Name(), sum, len(values))
		}
	}
}
