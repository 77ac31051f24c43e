package core

import (
	"testing"

	"commongraph/internal/graph"
	"commongraph/internal/snapshot"
)

// The paper's worked example (§3.1–§3.2, Figures 4–7): three snapshots
// related by
//
//	Δi+   = {e3, e12, e15}
//	Δi−   = {e9, e11, e16, e23, e29}
//	Δi+1+ = {e9, e11, e14, e24, e29}
//	Δi+1− = {e3, e4, e7, e10, e26}
//
// The six TG labels listed in §3.2 must come out exactly, the Tree1
// schedule must cost 19 additions, Tree2 21, and Direct-Hop 23.
//
// (The paper's prose says Direct-Hop processes "22 additions", but its own
// batch listing gives |Δc1|+|Δc2|+|Δc3| = 9+7+7 = 23; we reproduce the
// sets exactly and treat the 22 as a summation slip. See EXPERIMENTS.md.)

// ed maps the paper's edge label k to a concrete edge.
func ed(k int) graph.Edge {
	return graph.Edge{Src: graph.VertexID(k), Dst: graph.VertexID(100 + k), W: 1}
}

func eds(ks ...int) graph.EdgeList {
	out := make(graph.EdgeList, 0, len(ks))
	for _, k := range ks {
		out = append(out, ed(k))
	}
	return out.Canonicalize()
}

// paperStore builds the example's three snapshots. G_i contains the edges
// deleted over the window plus a few common filler edges (e1, e2).
func paperStore(t *testing.T) *snapshot.Store {
	t.Helper()
	gi := eds(1, 2, 4, 7, 9, 10, 11, 16, 23, 26, 29)
	s := snapshot.NewStore(200, gi)
	if _, err := s.NewVersion(eds(3, 12, 15), eds(9, 11, 16, 23, 29)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewVersion(eds(9, 11, 14, 24, 29), eds(3, 4, 7, 10, 26)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPaperExampleCommonGraphAndDeltas(t *testing.T) {
	s := paperStore(t)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(rep.Common, eds(1, 2)) {
		t.Fatalf("common = %v", rep.Common)
	}
	wantDeltas := []graph.EdgeList{
		eds(4, 7, 9, 10, 11, 16, 23, 26, 29), // Δc1, 9 additions
		eds(3, 4, 7, 10, 12, 15, 26),         // Δc2, 7 additions
		eds(9, 11, 12, 14, 15, 24, 29),       // Δc3, 7 additions
	}
	for k, want := range wantDeltas {
		if !graph.Equal(rep.Deltas[k].Edges(), want) {
			t.Fatalf("Δc%d = %v, want %v", k+1, rep.Deltas[k].Edges(), want)
		}
	}
	if rep.TotalDeltaEdges() != 23 {
		t.Fatalf("direct-hop additions = %d, want 23 (the paper's listing sums to 23)", rep.TotalDeltaEdges())
	}
}

func TestPaperExampleTGLabels(t *testing.T) {
	s := paperStore(t)
	tg, err := BuildTG(Window{Store: s, From: 0, To: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tg.W != 3 || tg.NumNodes() != 6 {
		t.Fatalf("W=%d nodes=%d", tg.W, tg.NumNodes())
	}
	cases := []struct {
		name string
		e    GridEdge
		want graph.EdgeList
	}{
		// The six batches enumerated in §3.2:
		{"ICG1->Gi", GridEdge{I: 0, J: 1, Left: true}, eds(9, 11, 16, 23, 29)},
		{"ICG1->Gi+1", GridEdge{I: 0, J: 1, Left: false}, eds(3, 12, 15)},
		{"ICG2->Gi+1", GridEdge{I: 1, J: 2, Left: true}, eds(3, 4, 7, 10, 26)},
		{"ICG2->Gi+2", GridEdge{I: 1, J: 2, Left: false}, eds(9, 11, 14, 24, 29)},
		{"Gc->ICG1", GridEdge{I: 0, J: 2, Left: true}, eds(4, 7, 10, 26)},
		{"Gc->ICG2", GridEdge{I: 0, J: 2, Left: false}, eds(12, 15)},
	}
	var edges []GridEdge
	for _, c := range cases {
		edges = append(edges, c.e)
	}
	labels := tg.Labels(edges)
	for _, c := range cases {
		if got := labels[c.e]; !graph.Equal(got, c.want) {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
		if tg.LabelSize(c.e) != int64(len(c.want)) {
			t.Errorf("%s: size %d want %d", c.name, tg.LabelSize(c.e), len(c.want))
		}
	}
}

func TestPaperExampleSchedules(t *testing.T) {
	s := paperStore(t)
	w := Window{Store: s, From: 0, To: 2}
	tg, err := BuildTG(w)
	if err != nil {
		t.Fatal(err)
	}

	// Direct-Hop: 9 + 7 + 7 additions.
	if c := tg.StarCost(); c != 23 {
		t.Fatalf("direct-hop cost = %d, want 23", c)
	}

	// The optimal schedule is the paper's Tree1 at 19 additions; Tree2
	// costs 21. Greedy, the interval DP, and brute force all find 19.
	for _, solver := range []struct {
		name string
		tree *SteinerTree
	}{
		{"greedy", SteinerGreedy(tg)},
		{"intervalDP", SteinerIntervalDP(tg)},
		{"brute", SteinerBrute(tg)},
	} {
		if solver.tree.Cost != 19 {
			t.Errorf("%s cost = %d, want 19 (Tree1)", solver.name, solver.tree.Cost)
		}
		if !solver.tree.SpansAllLeaves() {
			t.Errorf("%s does not span all leaves", solver.name)
		}
	}

	// Compression: in Tree1, ICG2 has one in- and one out-edge and is
	// bypassed, leaving the root with three children: ICG1 (covering
	// leaves 0 and 1) and a merged 7-addition hop straight to leaf 2.
	sched, err := NewSchedule(tg, SteinerGreedy(tg))
	if err != nil {
		t.Fatal(err)
	}
	if sched.Cost != 19 {
		t.Fatalf("schedule cost = %d", sched.Cost)
	}
	root := sched.Root
	if len(root.Edges) != 2 {
		t.Fatalf("root children = %d, want 2: %s", len(root.Edges), sched)
	}
	var toICG1, toLeaf2 *ScheduleEdge
	for _, e := range root.Edges {
		switch {
		case e.To.I == 0 && e.To.J == 1:
			toICG1 = e
		case e.To.I == 2 && e.To.J == 2:
			toLeaf2 = e
		}
	}
	if toICG1 == nil || toLeaf2 == nil {
		t.Fatalf("unexpected root children: %s", sched)
	}
	if toICG1.AddCount != 4 {
		t.Fatalf("Gc->ICG1 = %d additions, want 4", toICG1.AddCount)
	}
	if toLeaf2.AddCount != 7 || len(toLeaf2.Spans) != 2 {
		t.Fatalf("bypassed hop to leaf2: %d additions over %d spans, want 7 over 2",
			toLeaf2.AddCount, len(toLeaf2.Spans))
	}
	if len(toICG1.To.Edges) != 2 {
		t.Fatalf("ICG1 children = %d, want 2", len(toICG1.To.Edges))
	}
}
