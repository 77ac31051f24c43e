package commongraph

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"commongraph/internal/engine"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

// buildEvolving creates a public-API evolving graph from a generated
// workload.
func buildEvolving(t *testing.T, seed uint64, transitions, adds, dels int) (*EvolvingGraph, int) {
	t.Helper()
	n, base := gen.RMAT(gen.DefaultRMAT(8, 1000, seed))
	trs, err := gen.Stream(n, base, gen.StreamConfig{
		Transitions: transitions, Additions: adds, Deletions: dels, Seed: seed + 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := New(n, base)
	for _, tr := range trs {
		if _, err := g.ApplyUpdates(tr.Additions, tr.Deletions); err != nil {
			t.Fatal(err)
		}
	}
	return g, n
}

func TestPublicAPIBasics(t *testing.T) {
	g := New(3, []Edge{{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 5}})
	if g.NumVertices() != 3 || g.NumSnapshots() != 1 {
		t.Fatalf("n=%d snaps=%d", g.NumVertices(), g.NumSnapshots())
	}
	v, err := g.ApplyUpdates([]Edge{{Src: 2, Dst: 0, W: 1}}, []Edge{{Src: 0, Dst: 1, W: 2}})
	if err != nil || v != 1 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	snap, err := g.Snapshot(1)
	if err != nil || len(snap) != 2 {
		t.Fatalf("snap=%v err=%v", snap, err)
	}
	add, del, err := g.Diff(0, 1)
	if err != nil || len(add) != 1 || len(del) != 1 {
		t.Fatalf("diff add=%v del=%v err=%v", add, del, err)
	}
}

func TestEvaluateAllStrategiesAgree(t *testing.T) {
	g, n := buildEvolving(t, 61, 5, 40, 40)
	q := Query{Algorithm: SSSP, Source: 0}
	opts := Options{KeepValues: true}
	var results []*Result
	for _, s := range []Strategy{KickStarter, DirectHop, DirectHopParallel, WorkSharing} {
		res, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 5}, Strategy: s, Options: opts})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Snapshots) != 6 {
			t.Fatalf("%v: %d snapshots", s, len(res.Snapshots))
		}
		if res.Strategy != s {
			t.Fatalf("strategy not recorded")
		}
		if res.Timings.Total <= 0 {
			t.Fatalf("%v: no total time", s)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		for k := range results[0].Snapshots {
			a, b := results[0].Snapshots[k], results[i].Snapshots[k]
			if a.Checksum != b.Checksum || a.Reached != b.Reached || a.Index != b.Index {
				t.Fatalf("strategy %v disagrees with KickStarter at snapshot %d", results[i].Strategy, k)
			}
			for v := 0; v < n; v++ {
				if a.Values[v] != b.Values[v] {
					t.Fatalf("strategy %v value mismatch at snapshot %d vertex %d", results[i].Strategy, k, v)
				}
			}
		}
	}
	// CommonGraph strategies must process zero deletions.
	for _, res := range results[1:] {
		if res.DeletionsProcessed != 0 {
			t.Fatalf("%v processed %d deletions", res.Strategy, res.DeletionsProcessed)
		}
	}
	if results[0].DeletionsProcessed == 0 {
		t.Fatal("KickStarter should process deletions")
	}
	// Work-sharing must not process more additions than direct hop.
	if results[3].AdditionsProcessed > results[1].AdditionsProcessed {
		t.Fatalf("work sharing %d > direct hop %d additions",
			results[3].AdditionsProcessed, results[1].AdditionsProcessed)
	}
}

func TestEvaluateSubWindow(t *testing.T) {
	g, _ := buildEvolving(t, 67, 6, 30, 30)
	res, err := g.Run(context.Background(), Request{Query: Query{Algorithm: BFS, Source: 1}, Window: Window{From: 2, To: 4}, Strategy: DirectHop})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != 3 {
		t.Fatalf("snapshots=%d", len(res.Snapshots))
	}
	for i, s := range res.Snapshots {
		if s.Index != 2+i {
			t.Fatalf("snapshot %d has absolute index %d", i, s.Index)
		}
	}
	// Same window via KickStarter must agree (it starts streaming at 2).
	ks, err := g.Run(context.Background(), Request{Query: Query{Algorithm: BFS, Source: 1}, Window: Window{From: 2, To: 4}, Strategy: KickStarter})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Snapshots {
		if res.Snapshots[i].Checksum != ks.Snapshots[i].Checksum {
			t.Fatalf("sub-window disagreement at %d", i)
		}
	}
}

func TestEvaluateValidation(t *testing.T) {
	g, _ := buildEvolving(t, 71, 2, 10, 10)
	if _, err := g.Run(context.Background(), Request{Query: Query{Algorithm: nil, Source: 0}, Window: Window{From: 0, To: 1}, Strategy: DirectHop}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := g.Run(context.Background(), Request{Query: Query{Algorithm: BFS, Source: 1 << 30}, Window: Window{From: 0, To: 1}, Strategy: DirectHop}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	// The same source check guards every entry point, not only Run: an
	// unchecked source indexes past the engine's state array.
	w, err := g.Watch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	n := VertexID(g.NumVertices())
	if _, err := w.Run(context.Background(), Request{Query: Query{Algorithm: BFS, Source: n}, Strategy: DirectHop}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Watcher.Run: out-of-range source: %v", err)
	}
	if _, err := g.RunMulti(context.Background(), []Query{{Algorithm: BFS, Source: 0}, {Algorithm: BFS, Source: n}}, Window{From: 0, To: 1}, Options{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("RunMulti: out-of-range source: %v", err)
	}
	if _, err := g.Run(context.Background(), Request{Query: Query{Algorithm: BFS, Source: 0}, Window: Window{From: 0, To: 99}, Strategy: DirectHop}); err == nil {
		t.Fatal("bad window accepted")
	}
	if _, err := g.Run(context.Background(), Request{Query: Query{Algorithm: BFS, Source: 0}, Window: Window{From: 0, To: 1}, Strategy: Strategy(99)}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		KickStarter:       "KickStarter",
		DirectHop:         "Direct-Hop",
		DirectHopParallel: "Direct-Hop(parallel)",
		WorkSharing:       "Work-Sharing",
		Strategy(42):      "Strategy(42)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d -> %q want %q", int(s), s.String(), want)
		}
	}
}

func TestPlan(t *testing.T) {
	g, _ := buildEvolving(t, 73, 8, 40, 40)
	p, err := g.Plan(0, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Snapshots != 9 || p.CommonEdges <= 0 {
		t.Fatalf("%+v", p)
	}
	if p.WorkSharingAdditions > p.DirectHopAdditions {
		t.Fatalf("sharing %d > direct %d", p.WorkSharingAdditions, p.DirectHopAdditions)
	}
	if p.Tree == "" {
		t.Fatal("no tree rendering")
	}
	if _, err := g.Plan(5, 2, Options{}); err == nil {
		t.Fatal("bad window accepted")
	}
}

func TestAlgorithmHelpers(t *testing.T) {
	if len(Algorithms()) != 5 {
		t.Fatal("want 5 algorithms")
	}
	if a, ok := AlgorithmByName("Viterbi"); !ok || a.Name() != "Viterbi" {
		t.Fatal("ByName failed")
	}
	if p := ViterbiProbability(Viterbi.SourceValue()); p != 1.0 {
		t.Fatalf("source probability %f", p)
	}
	if p := ViterbiProbability(0); p != 0 {
		t.Fatalf("zero probability %f", p)
	}
}

func TestMaxHopTimeReported(t *testing.T) {
	g, _ := buildEvolving(t, 79, 3, 20, 20)
	q := Query{Algorithm: SSWP, Source: 0}
	// Sequential Direct-Hop times each hop in isolation, so it reports the
	// longest hop (the Table 5 estimate) too.
	seq, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 3}, Strategy: DirectHop})
	if err != nil {
		t.Fatal(err)
	}
	if seq.MaxHopTime <= 0 {
		t.Fatal("direct hop should report the longest hop")
	}
	par, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 3}, Strategy: DirectHopParallel, Options: Options{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if par.MaxHopTime <= 0 {
		t.Fatal("parallel direct hop should report MaxHopTime")
	}
}

func TestPublicTypesAreAliases(t *testing.T) {
	// The facade must accept substrate types without conversion.
	var e Edge = graph.Edge{Src: 1, Dst: 2, W: 3}
	var el graph.EdgeList = []Edge{e}
	if len(el) != 1 {
		t.Fatal("alias failure")
	}
	var o Options
	if !reflect.DeepEqual(o.engine(), engine.Options{}) {
		t.Fatal("default engine options should be zero")
	}
}

func TestEvaluatePropertyRandomWindows(t *testing.T) {
	// For random evolving graphs, random sub-windows, and random
	// algorithms, all four strategies must agree checksum-for-checksum.
	f := func(seed int64) bool {
		g, _ := buildEvolving(t, uint64(seed)%1000+200, 6, 30, 30)
		algos := Algorithms()
		a := algos[int(uint64(seed)%uint64(len(algos)))]
		from := int(uint64(seed) % 3)
		to := from + 2 + int(uint64(seed)%2)
		q := Query{Algorithm: a, Source: VertexID(uint64(seed) % 64)}
		var prev *Result
		for _, s := range []Strategy{KickStarter, DirectHop, DirectHopParallel, WorkSharing} {
			res, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: from, To: to}, Strategy: s})
			if err != nil {
				return false
			}
			if prev != nil {
				for k := range res.Snapshots {
					if res.Snapshots[k].Checksum != prev.Snapshots[k].Checksum {
						return false
					}
				}
			}
			prev = res
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
