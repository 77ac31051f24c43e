package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
	"commongraph/internal/snapshot"
)

// randomStore builds a small evolving graph with the given number of
// transitions.
func randomStore(seed uint64, transitions, adds, dels int) (*snapshot.Store, int) {
	n, base := gen.RMAT(gen.DefaultRMAT(8, 900, seed))
	trs, err := gen.Stream(n, base, gen.StreamConfig{
		Transitions: transitions, Additions: adds, Deletions: dels, Seed: seed + 1,
	})
	if err != nil {
		panic(err)
	}
	s := snapshot.NewStore(n, base)
	for _, tr := range trs {
		if _, err := s.NewVersion(tr.Additions, tr.Deletions); err != nil {
			panic(err)
		}
	}
	return s, n
}

// bruteCommon intersects materialized snapshots — the oracle for E_c and
// for every intermediate common graph C[i,j].
func bruteCommon(t *testing.T, s *snapshot.Store, from, to int) graph.EdgeList {
	t.Helper()
	cur, err := s.GetVersion(from)
	if err != nil {
		t.Fatal(err)
	}
	for v := from + 1; v <= to; v++ {
		next, err := s.GetVersion(v)
		if err != nil {
			t.Fatal(err)
		}
		cur = graph.Intersect(cur, next)
	}
	return cur
}

func TestBuildRepMatchesBruteIntersection(t *testing.T) {
	f := func(seed int64) bool {
		s, _ := randomStore(uint64(seed), 6, 40, 40)
		w := Window{Store: s, From: 1, To: 5} // not starting at 0, on purpose
		rep, err := BuildRep(w)
		if err != nil {
			return false
		}
		if !graph.Equal(rep.Common, bruteCommon(t, s, 1, 5)) {
			return false
		}
		// Deltas[k] must turn the common graph into snapshot From+k.
		for k := 0; k < w.Width(); k++ {
			snap, _ := s.GetVersion(w.From + k)
			if !graph.Equal(graph.Union(rep.Common, rep.Deltas[k].Edges()), snap) {
				return false
			}
			// ... and the overlay view must present exactly that snapshot.
			if !graph.Equal(rep.SnapshotGraph(k).Edges(), snap) {
				return false
			}
			// Deltas must be disjoint from the common graph.
			if len(graph.Intersect(rep.Common, rep.Deltas[k].Edges())) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowValidate(t *testing.T) {
	s, _ := randomStore(3, 3, 10, 10)
	bad := []Window{
		{Store: nil, From: 0, To: 1},
		{Store: s, From: -1, To: 2},
		{Store: s, From: 0, To: 99},
		{Store: s, From: 2, To: 1},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Fatalf("window %+v should be invalid", w)
		}
		if _, err := BuildRep(w); err == nil {
			t.Fatalf("BuildRep(%+v) should fail", w)
		}
		if _, err := BuildTG(w); err == nil {
			t.Fatalf("BuildTG(%+v) should fail", w)
		}
	}
	good := Window{Store: s, From: 0, To: 3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Width() != 4 {
		t.Fatalf("width=%d", good.Width())
	}
}

func TestTGLabelsMatchBruteIntersections(t *testing.T) {
	// Every grid edge label must equal C[to] \ C[from] computed by brute
	// force, and LabelSize must agree with the materialized set.
	s, _ := randomStore(11, 5, 30, 30)
	w := Window{Store: s, From: 0, To: 4}
	tg, err := BuildTG(w)
	if err != nil {
		t.Fatal(err)
	}
	var all []GridEdge
	for j := 1; j < tg.W; j++ {
		for i := 0; i+j <= tg.W-1; i++ {
			all = append(all, GridEdge{I: i, J: i + j, Left: true}, GridEdge{I: i, J: i + j, Left: false})
		}
	}
	labels := tg.Labels(all)
	for _, e := range all {
		fi, fj := e.From()
		ti, tj := e.To()
		want := graph.Minus(bruteCommon(t, s, ti, tj), bruteCommon(t, s, fi, fj))
		if !graph.Equal(labels[e], want) {
			t.Fatalf("label %v: got %d edges want %d", e, len(labels[e]), len(want))
		}
		if tg.LabelSize(e) != int64(len(want)) {
			t.Fatalf("size %v: got %d want %d", e, tg.LabelSize(e), len(want))
		}
	}
}

func TestGridEdgeEndpoints(t *testing.T) {
	e := GridEdge{I: 1, J: 4, Left: true}
	if ti, tj := e.To(); ti != 1 || tj != 3 {
		t.Fatalf("left to = [%d,%d]", ti, tj)
	}
	e.Left = false
	if ti, tj := e.To(); ti != 2 || tj != 4 {
		t.Fatalf("right to = [%d,%d]", ti, tj)
	}
	if e.String() != "[1,4]->[2,4]" {
		t.Fatalf("string = %q", e.String())
	}
}

// gridWindow builds the grid of a seeded window of w snapshots.
func gridWindow(t *testing.T, seed uint64, w, adds, dels int) (*snapshot.Store, *TG) {
	t.Helper()
	s, _ := randomStore(seed, w-1, adds, dels)
	tg, err := BuildTG(Window{Store: s, From: 0, To: w - 1})
	if err != nil {
		t.Fatal(err)
	}
	return s, tg
}

// TestRootPathCostsTelescope is the identity the exact solver rests on:
// every root→[a,b] path streams rootDistances' entry for [a,b] — checked
// on the two extreme zigzags, all-left-then-right and all-right-then-left
// — and that entry is |C[a,b]| − |E_c|.
func TestRootPathCostsTelescope(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		w := 2 + int(seed%9)
		s, tg := gridWindow(t, 300+seed, w, 30, 30)
		size := tg.rootDistances()
		common := len(bruteCommon(t, s, 0, w-1))
		for a := 0; a < w; a++ {
			for b := a; b < w; b++ {
				var leftFirst, rightFirst []GridEdge
				for j := w - 1; j > b; j-- {
					leftFirst = append(leftFirst, GridEdge{I: 0, J: j, Left: true})
				}
				for i := 0; i < a; i++ {
					leftFirst = append(leftFirst, GridEdge{I: i, J: b, Left: false})
					rightFirst = append(rightFirst, GridEdge{I: i, J: w - 1, Left: false})
				}
				for j := w - 1; j > b; j-- {
					rightFirst = append(rightFirst, GridEdge{I: a, J: j, Left: true})
				}
				want := size[a*w+b]
				if l, r := tg.PathCost(leftFirst), tg.PathCost(rightFirst); l != want || r != want {
					t.Fatalf("seed %d [%d,%d]: paths cost %d and %d, table says %d", seed, a, b, l, r, want)
				}
				if got := int64(len(bruteCommon(t, s, a, b)) - common); got != want {
					t.Fatalf("seed %d [%d,%d]: |C[a,b]|-|Ec| = %d, table says %d", seed, a, b, got, want)
				}
			}
		}
	}
}

// checkExactTree asserts what every SteinerIntervalDP result must satisfy
// whatever the width.
func checkExactTree(t *testing.T, tg *TG, tree *SteinerTree) {
	t.Helper()
	if !tree.SpansAllLeaves() {
		t.Fatalf("w=%d: exact tree does not span all leaves", tg.W)
	}
	if sum := tg.PathCost(tree.Edges); sum != tree.Cost {
		t.Fatalf("w=%d: cost %d != edge sum %d", tg.W, tree.Cost, sum)
	}
	if g := SteinerGreedy(tg); tree.Cost > g.Cost {
		t.Fatalf("w=%d: exact cost %d exceeds greedy %d", tg.W, tree.Cost, g.Cost)
	}
	if d := tg.StarCost(); tree.Cost > d {
		t.Fatalf("w=%d: exact cost %d exceeds direct-hop %d", tg.W, tree.Cost, d)
	}
	sched, err := NewSchedule(tg, tree)
	if err != nil {
		t.Fatal(err)
	}
	// A binary tree over w leaves: every chain compresses to one edge.
	edges := 0
	var walk func(n *ScheduleNode)
	walk = func(n *ScheduleNode) {
		edges += len(n.Edges)
		for _, e := range n.Edges {
			walk(e.To)
		}
	}
	walk(sched.Root)
	if edges != 2*(tg.W-1) {
		t.Fatalf("w=%d: %d schedule edges, want %d", tg.W, edges, 2*(tg.W-1))
	}
}

func TestSteinerSolversAgainstBrute(t *testing.T) {
	// Brute force is the optimum; the exact solver must meet it on every
	// window, and greedy can only cost more. Brute is exponential in w, so
	// most of the 216 windows are narrow and a handful have w = 7.
	for seed := uint64(1); seed <= 216; seed++ {
		w := 2 + int(seed%5)
		if seed%36 == 0 {
			w = 7
		}
		_, tg := gridWindow(t, seed, w, 10+int(seed%23), 10+int(seed%17))
		brute, dp := SteinerBrute(tg), SteinerIntervalDP(tg)
		if !brute.SpansAllLeaves() {
			t.Fatalf("seed %d: brute tree does not span all leaves", seed)
		}
		if dp.Cost != brute.Cost {
			t.Fatalf("seed %d w=%d: exact solver cost %d, brute force %d", seed, w, dp.Cost, brute.Cost)
		}
		checkExactTree(t, tg, dp)
	}
}

// TestSteinerExactOnWideWindows: past brute force's reach the exact tree
// still spans, adds up, and undercuts greedy and the star.
func TestSteinerExactOnWideWindows(t *testing.T) {
	for _, w := range []int{8, 13, 24, 41, 64} {
		_, tg := gridWindow(t, uint64(500+w), w, 40, 40)
		checkExactTree(t, tg, SteinerIntervalDP(tg))
	}
}

// TestSteinerExactIsCubic is the complexity guard: a 512-snapshot window
// (billions of states for a four-index DP, which would not finish) solves
// well inside a bound that only a super-cubic solver would miss.
func TestSteinerExactIsCubic(t *testing.T) {
	_, tg := gridWindow(t, 9, 512, 12, 12)
	t0 := time.Now()
	tree := SteinerIntervalDP(tg)
	if d := time.Since(t0); d > 10*time.Second {
		t.Fatalf("w=512 took %v", d)
	}
	if !tree.SpansAllLeaves() {
		t.Fatal("w=512 tree does not span all leaves")
	}
}

func TestSteinerSingleSnapshotWindow(t *testing.T) {
	s, _ := randomStore(5, 2, 10, 10)
	tg, err := BuildTG(Window{Store: s, From: 1, To: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range []*SteinerTree{SteinerGreedy(tg), SteinerIntervalDP(tg), SteinerBrute(tg)} {
		if tree.Cost != 0 || len(tree.Edges) != 0 || !tree.SpansAllLeaves() {
			t.Fatalf("degenerate tree: %+v", tree)
		}
	}
	sched, err := NewSchedule(tg, SteinerGreedy(tg))
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Root.IsLeaf() {
		t.Fatal("single-snapshot schedule should be a lone leaf")
	}
}

func TestScheduleRejectsNonSpanningTree(t *testing.T) {
	s, _ := randomStore(6, 3, 15, 15)
	tg, _ := BuildTG(Window{Store: s, From: 0, To: 3})
	broken := &SteinerTree{W: tg.W, Edges: []GridEdge{{I: 0, J: 3, Left: true}}}
	if _, err := NewSchedule(tg, broken); err == nil {
		t.Fatal("expected error for non-spanning tree")
	}
}

func TestScheduleLeavesAndCost(t *testing.T) {
	s, _ := randomStore(7, 6, 25, 25)
	tg, _ := BuildTG(Window{Store: s, From: 0, To: 6})
	sched, err := NewSchedule(tg, SteinerGreedy(tg))
	if err != nil {
		t.Fatal(err)
	}
	leaves := sched.Leaves()
	if len(leaves) != 7 {
		t.Fatalf("leaves=%d", len(leaves))
	}
	for k, l := range leaves {
		if l.I != k || l.J != k {
			t.Fatalf("leaf %d = [%d,%d]", k, l.I, l.J)
		}
	}
	// Any root-to-leaf path streams Δ_ck: the labels along a zigzag to leaf
	// k union to Rep.Deltas[k] (the rule that lets an edge from the root
	// into a leaf stream the seed chain's S_k whatever the schedule), and
	// the star costs what the rep's deltas hold.
	rep, err := BuildRep(Window{Store: s, From: 0, To: 6})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < tg.W; k++ {
		var path []GridEdge
		for i := 0; i < k; i++ {
			path = append(path, GridEdge{I: i, J: tg.W - 1})
		}
		for j := tg.W - 1; j > k; j-- {
			path = append(path, GridEdge{I: k, J: j, Left: true})
		}
		labels := tg.Labels(path)
		var batch graph.EdgeList
		for _, span := range path {
			batch = graph.Union(batch, labels[span])
		}
		if !graph.Equal(batch, rep.Deltas[k].Edges()) {
			t.Fatalf("root-to-leaf batch %d differs from Δc%d", k, k)
		}
	}
	if c := tg.StarCost(); c != rep.TotalDeltaEdges() || rep.star().Cost != c {
		t.Fatalf("star cost %d (TG) / %d (rep) != ΣΔ %d", c, rep.star().Cost, rep.TotalDeltaEdges())
	}
}

// evaluateAll runs the three strategies plus the streaming baseline and
// the reference oracle on every snapshot, asserting all agree.
func TestAllStrategiesAgreeOnAllSnapshots(t *testing.T) {
	s, n := randomStore(31, 7, 50, 50)
	w := Window{Store: s, From: 0, To: 7}
	rep, err := BuildRep(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algo.All() {
		cfg := Config{Algo: a, Source: 0, KeepValues: true}
		dh, err := DirectHop(rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dhp, err := DirectHopParallel(rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws, sched, err := EvaluateWorkSharing(rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sched.Cost > rep.TotalDeltaEdges() {
			t.Fatalf("%s: work sharing cost %d exceeds direct hop %d", a.Name(), sched.Cost, rep.TotalDeltaEdges())
		}
		for k := 0; k <= 7; k++ {
			snap, _ := s.GetVersion(k)
			ref := engine.Reference(graph.NewPair(n, snap), a, 0)
			for name, res := range map[string]*Result{"direct": dh, "parallel": dhp, "worksharing": ws} {
				sr := res.Snapshots[k]
				if sr.Index != k {
					t.Fatalf("%s/%s: snapshot %d has index %d", a.Name(), name, k, sr.Index)
				}
				if len(sr.Values) != n {
					t.Fatalf("%s/%s: values not kept", a.Name(), name)
				}
				for v := 0; v < n; v++ {
					if sr.Values[v] != ref[v] {
						t.Fatalf("%s/%s snapshot %d vertex %d: got %d want %d",
							a.Name(), name, k, v, sr.Values[v], ref[v])
					}
				}
			}
			if dh.Snapshots[k].Checksum != ws.Snapshots[k].Checksum ||
				dh.Snapshots[k].Checksum != dhp.Snapshots[k].Checksum {
				t.Fatalf("%s: checksum mismatch at snapshot %d", a.Name(), k)
			}
		}
		if dh.AdditionsProcessed != rep.TotalDeltaEdges() {
			t.Fatalf("%s: direct hop processed %d additions, want %d",
				a.Name(), dh.AdditionsProcessed, rep.TotalDeltaEdges())
		}
		if ws.AdditionsProcessed != sched.Cost {
			t.Fatalf("%s: work sharing processed %d additions, schedule cost %d",
				a.Name(), ws.AdditionsProcessed, sched.Cost)
		}
	}
}

func TestDirectHopParallelBounded(t *testing.T) {
	s, _ := randomStore(41, 5, 30, 30)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algo: algo.BFS{}, Source: 0, Workers: 2}
	res, err := DirectHopParallel(rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxHopTime <= 0 {
		t.Fatal("no hop time recorded")
	}
	if len(res.Snapshots) != 6 {
		t.Fatalf("snapshots=%d", len(res.Snapshots))
	}
}

func TestWorkSharingWidthMismatch(t *testing.T) {
	s, _ := randomStore(43, 4, 20, 20)
	rep, _ := BuildRep(Window{Store: s, From: 0, To: 4})
	tgSmall, _ := BuildTG(Window{Store: s, From: 0, To: 2})
	sched, err := NewSchedule(tgSmall, SteinerGreedy(tgSmall))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WorkSharing(rep, tgSmall, sched, Config{Algo: algo.BFS{}, Source: 0}); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestWorkSharingSingleSnapshot(t *testing.T) {
	s, n := randomStore(47, 3, 20, 20)
	w := Window{Store: s, From: 2, To: 2}
	rep, err := BuildRep(w)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := EvaluateWorkSharing(rep, Config{Algo: algo.SSSP{}, Source: 0, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != 1 {
		t.Fatalf("snapshots=%d", len(res.Snapshots))
	}
	snap, _ := s.GetVersion(2)
	ref := engine.Reference(graph.NewPair(n, snap), algo.SSSP{}, 0)
	for v := 0; v < n; v++ {
		if res.Snapshots[0].Values[v] != ref[v] {
			t.Fatalf("vertex %d differs", v)
		}
	}
}

func TestChecksumDistinguishesStates(t *testing.T) {
	s, _ := randomStore(53, 2, 30, 30)
	rep, _ := BuildRep(Window{Store: s, From: 0, To: 2})
	res, err := DirectHop(rep, Config{Algo: algo.SSSP{}, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Different snapshots overwhelmingly have different checksums.
	if res.Snapshots[0].Checksum == res.Snapshots[1].Checksum &&
		res.Snapshots[1].Checksum == res.Snapshots[2].Checksum {
		t.Fatal("checksums suspiciously identical across all snapshots")
	}
}

func TestScheduleStringRendering(t *testing.T) {
	s, _ := randomStore(61, 4, 20, 20)
	tg, _ := BuildTG(Window{Store: s, From: 0, To: 4})
	sched, err := NewSchedule(tg, SteinerGreedy(tg))
	if err != nil {
		t.Fatal(err)
	}
	out := sched.String()
	if !strings.Contains(out, "[0,4]") {
		t.Fatalf("root missing from rendering:\n%s", out)
	}
	if !strings.Contains(out, "additions ->") {
		t.Fatalf("edges missing from rendering:\n%s", out)
	}
	for k := 0; k <= 4; k++ {
		if !strings.Contains(out, fmt.Sprintf("[%d,%d]", k, k)) {
			t.Fatalf("leaf %d missing from rendering:\n%s", k, out)
		}
	}
}

func TestDirectHopScheduleLeaves(t *testing.T) {
	s, _ := randomStore(67, 5, 20, 20)
	rep, _ := BuildRep(Window{Store: s, From: 0, To: 5})
	dh := rep.star()
	if dh != rep.star() {
		t.Fatal("the star is built again on every call")
	}
	leaves := dh.Leaves()
	if len(leaves) != 6 {
		t.Fatalf("leaves=%d", len(leaves))
	}
	if len(dh.Root.Edges) != 6 || dh.Depth() != 1 {
		t.Fatalf("root fan-out=%d depth=%d", len(dh.Root.Edges), dh.Depth())
	}
	for k, e := range dh.Root.Edges {
		if e.To.I != k || e.AddCount != int64(rep.Deltas[k].Len()) || len(e.parts) != 1 ||
			!graph.Equal(e.parts[0], rep.Deltas[k].Edges()) {
			t.Fatalf("star edge %d does not stream Δc%d whole", k, k)
		}
	}
	one, _ := BuildRep(Window{Store: s, From: 2, To: 2})
	if !one.star().Root.IsLeaf() {
		t.Fatal("a single-snapshot star should be a lone leaf")
	}
}

func TestSteinerTreeCostMatchesEdgeSum(t *testing.T) {
	s, _ := randomStore(71, 6, 25, 25)
	tg, _ := BuildTG(Window{Store: s, From: 0, To: 6})
	tree := SteinerGreedy(tg)
	var sum int64
	for _, e := range tree.Edges {
		sum += tg.LabelSize(e)
	}
	if sum != tree.Cost {
		t.Fatalf("cost %d != edge sum %d", tree.Cost, sum)
	}
}
