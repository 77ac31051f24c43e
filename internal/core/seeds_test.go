package core

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/faults"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
	"commongraph/internal/snapshot"
)

// reweighStore is the seed chain's trap window. Minus and Union identify
// an edge by its endpoints, so a chain that carried an edge across a
// deletion would keep seeding a weight the snapshot no longer holds:
//
//	1->2 is deleted at v1 and re-added at v2 five times heavier;
//	0->2 is deleted and re-added, lighter, inside the one transition to v3;
//	2->3 is deleted at v3 and back at v4 with its old weight;
//	5->4 leaves an unreachable source, in the window from v2 on.
//
// A transition that deletes and re-adds one edge is outside what
// NewVersion accepts, so the stream goes in through the trusted-producer
// constructor; deletions leave first, as everywhere.
func reweighStore(t *testing.T) *snapshot.Store {
	t.Helper()
	e := func(s, d uint32, w graph.Weight) graph.Edge {
		return graph.Edge{Src: graph.VertexID(s), Dst: graph.VertexID(d), W: w}
	}
	base := graph.EdgeList{e(0, 1, 2), e(0, 2, 9), e(1, 2, 2), e(2, 3, 3), e(3, 4, 4)}
	adds := []graph.EdgeList{
		{},                        // v1
		{e(1, 2, 10), e(5, 4, 1)}, // v2
		{e(0, 2, 1)},              // v3
		{e(2, 3, 3)},              // v4
	}
	dels := []graph.EdgeList{
		{e(1, 2, 0)},
		{},
		{e(0, 2, 0), e(2, 3, 0)},
		{},
	}
	s, err := snapshot.NewStoreFromTransitions(6, base, adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHopSeedsMatchDirectFilter: the chain's S_k, carried from hop to hop
// by the window's batches, is exactly the useful part of Deltas[k] filtered
// directly — same edges, same weights — for every Table-3 algorithm, on
// seeded windows and on the delete / re-add / re-weigh shapes; and seeding
// from it reaches the reference fixpoint.
func TestHopSeedsMatchDirectFilter(t *testing.T) {
	type window struct {
		name     string
		store    *snapshot.Store
		from, to int
	}
	windows := []window{
		{"readd", readdStore(t), 0, 4},
		{"readd-inner", readdStore(t), 1, 3},
		{"reweigh", reweighStore(t), 0, 4},
		{"reweigh-tail", reweighStore(t), 2, 4},
	}
	for seed := uint64(0); seed < 4; seed++ {
		s, _ := randomStore(900+seed, 7, 60, 60)
		windows = append(windows, window{fmt.Sprintf("seeded-%d", seed), s, int(seed % 2), 7})
	}
	for _, w := range windows {
		rep, err := BuildRep(Window{Store: w.store, From: w.from, To: w.to})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range algo.All() {
			cfg := Config{Algo: a, Source: 0, KeepValues: true}
			x, err := start(rep, cfg, "direct-hop")
			if err != nil {
				t.Fatal(err)
			}
			useful := x.seedChain()
			var total int64
			for k, got := range x.seeds {
				want := appendUseful(nil, x.base, rep.Deltas[k].Edges())
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s: S_%d = %v, filter(Deltas[%d]) = %v", w.name, a.Name(), k, got, k, want)
				}
				total += int64(len(got))
			}
			if useful != total {
				t.Fatalf("%s %s: seedChain reports %d useful seeds, its sets hold %d", w.name, a.Name(), useful, total)
			}
			res, err := DirectHop(rep, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.AdditionsProcessed != rep.TotalDeltaEdges() {
				t.Fatalf("%s %s: AdditionsProcessed = %d, the schedule streams %d", w.name, a.Name(), res.AdditionsProcessed, rep.TotalDeltaEdges())
			}
			for k, snap := range res.Snapshots {
				edges, _ := w.store.GetVersion(w.from + k)
				ref := engine.Reference(graph.NewPair(rep.N, edges), a, 0)
				if !slices.Equal(snap.Values, ref) {
					t.Fatalf("%s %s: snapshot %d differs from the reference", w.name, a.Name(), k)
				}
			}
		}
	}
}

// TestSeedRuleHoldsOnTheTree: the walker's seed rule is stated for any
// schedule — an edge from the root into leaf k streams Δ_ck, so S_k may
// stand in for it, and no other edge may take S_k. Walking the
// Work-Sharing tree with the chain derived still reaches the reference.
func TestSeedRuleHoldsOnTheTree(t *testing.T) {
	s, _ := randomStore(907, 9, 60, 60)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 9})
	if err != nil {
		t.Fatal(err)
	}
	_, sched, _, err := rep.Schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algo.All() {
		x, err := start(rep, Config{Algo: a, Source: 0, KeepValues: true}, "work-sharing")
		if err != nil {
			t.Fatal(err)
		}
		x.seedChain()
		if err := x.run(sched, false, 1); err != nil {
			t.Fatal(err)
		}
		for k, snap := range x.res.Snapshots {
			edges, _ := s.GetVersion(k)
			if ref := engine.Reference(graph.NewPair(rep.N, edges), a, 0); !slices.Equal(snap.Values, ref) {
				t.Fatalf("%s: snapshot %d differs from the reference", a.Name(), k)
			}
		}
	}
}

// TestReweighShapesAreInTheWindow keeps the trap honest: the re-weighted
// edges really are window deltas with the new weight, and the lighter
// 0->2 is a useful seed only from v3 on.
func TestReweighShapesAreInTheWindow(t *testing.T) {
	rep, err := BuildRep(Window{Store: reweighStore(t), From: 0, To: 4})
	if err != nil {
		t.Fatal(err)
	}
	weight := func(k int, src, dst graph.VertexID) graph.Weight {
		for _, e := range rep.Deltas[k].Edges() {
			if e.Src == src && e.Dst == dst {
				return e.W
			}
		}
		return -1
	}
	if w2, w4 := weight(0, 1, 2), weight(2, 1, 2); w2 != 2 || w4 != 10 {
		t.Fatalf("1->2 weighs %d at v0 and %d at v2, want 2 and 10", w2, w4)
	}
	if w2, w3 := weight(2, 0, 2), weight(3, 0, 2); w2 != 9 || w3 != 1 {
		t.Fatalf("0->2 weighs %d at v2 and %d at v3, want 9 and 1", w2, w3)
	}
	x, err := start(rep, Config{Algo: algo.SSSP{}, Source: 0}, "direct-hop")
	if err != nil {
		t.Fatal(err)
	}
	x.seedChain()
	for k, s := range x.seeds {
		has := slices.ContainsFunc(s, func(e graph.Edge) bool { return e.Src == 0 && e.Dst == 2 && e.W == 1 })
		if has != (k >= 3) {
			t.Fatalf("S_%d holds the light 0->2: %v", k, has)
		}
		if slices.ContainsFunc(s, func(e graph.Edge) bool { return e.Src == 5 }) {
			t.Fatalf("S_%d seeds from the unreachable vertex 5", k)
		}
	}
}

// TestHopAllocationDoesNotScaleWithWidth: a warm Direct-Hop evaluation
// allocates its seed sets and little else. Its copy of the common state
// and every hop state come from the free list, and so does each pass's
// engine scratch (the seed frontier, a sync pass's runner and second
// frontier), so what grows with the width is a few small objects per hop,
// allowed here at 4 KiB.
func TestHopAllocationDoesNotScaleWithWidth(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	n, base := gen.RMAT(gen.DefaultRMAT(15, 200_000, 77))
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 31, Additions: 120, Deletions: 120, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	s := snapshot.NewStore(n, base)
	for _, tr := range trs {
		if _, err := s.NewVersion(tr.Additions, tr.Deletions); err != nil {
			t.Fatal(err)
		}
	}
	for _, width := range []int{8, 32} {
		rep, err := BuildRep(Window{Store: s, From: 0, To: width - 1})
		if err != nil {
			t.Fatal(err)
		}
		// The common fixpoint is handed in, as a PlanCache does: the
		// from-scratch solve's own scratch is not what is measured here.
		common, _ := engine.Run(rep.Base, algo.SSSP{}, 0, engine.Options{})
		cfg := Config{Algo: algo.SSSP{}, Source: 0, Common: common}
		if _, err := DirectHop(rep, cfg); err != nil { // warms the leaf overlays and the free list
			t.Fatal(err)
		}
		_, useful, err := SeedShare(rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		arena := uint64(useful) * 12
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := DirectHop(rep, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		got := m1.TotalAlloc - m0.TotalAlloc
		// Patch sizes S_{k+1} at |S_k| + |useful(Δ+_k)|, a little over what
		// it keeps: a quarter on top covers it.
		bound := arena + arena/4 + uint64(width)*4<<10
		t.Logf("width %d: %d bytes allocated, bound %d (seed sets %d)", width, got, bound, arena)
		if got > bound {
			t.Fatalf("width %d: a warm evaluation allocated %d bytes, bound %d (seed sets %d)", width, got, bound, arena)
		}
	}
}

// TestDegradeFallbackStreamsWholeBatches: Work-Sharing derives no seed
// chain, so the fallback of a failed subtree walks the star edges of its
// leaves with their whole batches, and is still exact.
func TestDegradeFallbackStreamsWholeBatches(t *testing.T) {
	f := newFaultFixture(t, 411, 8)
	tr := obs.New()
	root := tr.StartSpan("evaluate")
	cfg := f.cfg
	cfg.Degrade, cfg.Trace = true, root
	disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.CoreSubtreeWalk, After: 1, Times: 1}}})
	res, err := WorkSharingParallel(f.rep, f.tg, f.sched, cfg)
	disarm()
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("the armed subtree did not degrade")
	}
	f.assertMatchesClean(t, res)
	degrades := map[obs.SpanID]bool{}
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "hop.seeds":
			t.Fatal("a Work-Sharing evaluation derived a seed chain")
		case "subtree.degrade":
			degrades[ev.ID] = true
		}
	}
	fallbacks := 0
	for _, ev := range tr.Events() {
		if ev.Name != "schedule.edge" || !degrades[ev.Parent] {
			continue
		}
		fallbacks++
		leaf, _, _ := strings.Cut(ev.Attr("to"), ",")
		k, _ := strconv.Atoi(leaf)
		if ev.Attr("from") != nodeRef(f.sched.Root) {
			t.Fatalf("fallback edge into leaf %d leaves %s, not the root", k, ev.Attr("from"))
		}
		if want := strconv.Itoa(f.rep.Deltas[k].Len()); ev.Attr("seeds") != want || ev.Attr("batch") != want {
			t.Fatalf("fallback edge into leaf %d: seeds=%s batch=%s, want both %s", k, ev.Attr("seeds"), ev.Attr("batch"), want)
		}
	}
	if fallbacks == 0 {
		t.Fatal("no fallback schedule.edge span recorded")
	}
}

// TestDirectHopTraceCarriesSeeds: one hop.seeds span per evaluation whose
// useful count is the sum of the star edges' seeds attributes and whose
// streamed count is the sum of their batches, the schedule's cost.
func TestDirectHopTraceCarriesSeeds(t *testing.T) {
	s, _ := randomStore(79, 8, 60, 60)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(*Rep, Config) (*Result, error){DirectHop, DirectHopParallel} {
		tr := obs.New()
		root := tr.StartSpan("evaluate")
		res, err := run(rep, Config{Algo: algo.SSSP{}, Source: 0, Trace: root})
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		var chains, edges, seeds, batch int
		var useful, streamed string
		for _, ev := range tr.Events() {
			switch ev.Name {
			case "hop.seeds":
				chains++
				useful, streamed = ev.Attr("useful"), ev.Attr("streamed")
			case "schedule.edge":
				edges++
				k, _ := strconv.Atoi(ev.Attr("seeds"))
				seeds += k
				k, _ = strconv.Atoi(ev.Attr("batch"))
				batch += k
			}
		}
		if chains != 1 || edges != len(rep.Deltas) {
			t.Fatalf("hop.seeds spans = %d, schedule.edge spans = %d (width %d)", chains, edges, len(rep.Deltas))
		}
		if useful != strconv.Itoa(seeds) || streamed != strconv.Itoa(batch) || int64(batch) != res.AdditionsProcessed {
			t.Fatalf("hop.seeds useful=%s streamed=%s; edges seeded %d of %d, schedule streams %d", useful, streamed, seeds, batch, res.AdditionsProcessed)
		}
	}
}
