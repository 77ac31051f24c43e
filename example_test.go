package commongraph_test

import (
	"context"
	"fmt"
	"log"

	"commongraph"
)

// ExampleEvolvingGraph_Run tracks a shortest-path query across three
// snapshots of a small evolving graph.
func ExampleEvolvingGraph_Run() {
	g := commongraph.New(4, []commongraph.Edge{
		{Src: 0, Dst: 1, W: 5},
		{Src: 1, Dst: 2, W: 5},
	})
	// Snapshot 1: a shortcut 0->2 appears.
	if _, err := g.ApplyUpdates([]commongraph.Edge{{Src: 0, Dst: 2, W: 3}}, nil); err != nil {
		log.Fatal(err)
	}
	// Snapshot 2: the original first hop disappears.
	if _, err := g.ApplyUpdates(nil, []commongraph.Edge{{Src: 0, Dst: 1, W: 5}}); err != nil {
		log.Fatal(err)
	}

	res, err := g.Run(context.Background(), commongraph.Request{
		Query:    commongraph.Query{Algorithm: commongraph.SSSP, Source: 0},
		Window:   commongraph.Window{From: 0, To: 2},
		Strategy: commongraph.DirectHop,
		Options:  commongraph.Options{KeepValues: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, snap := range res.Snapshots {
		fmt.Printf("snapshot %d: dist(0->2) = %d\n", snap.Index, snap.Values[2])
	}
	// Output:
	// snapshot 0: dist(0->2) = 10
	// snapshot 1: dist(0->2) = 3
	// snapshot 2: dist(0->2) = 3
}

// ExampleEvolvingGraph_Plan compares the evaluation schedules' costs
// without executing them.
func ExampleEvolvingGraph_Plan() {
	g := commongraph.New(8, []commongraph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 1},
		{Src: 3, Dst: 4, W: 1}, {Src: 4, Dst: 5, W: 1},
	})
	if _, err := g.ApplyUpdates(
		[]commongraph.Edge{{Src: 5, Dst: 6, W: 1}},
		[]commongraph.Edge{{Src: 0, Dst: 1, W: 1}},
	); err != nil {
		log.Fatal(err)
	}
	if _, err := g.ApplyUpdates(
		[]commongraph.Edge{{Src: 0, Dst: 1, W: 1}},
		[]commongraph.Edge{{Src: 5, Dst: 6, W: 1}},
	); err != nil {
		log.Fatal(err)
	}
	p, err := g.Plan(0, 2, commongraph.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshots %d, common %d edges\n", p.Snapshots, p.CommonEdges)
	fmt.Printf("direct-hop %d additions, work-sharing %d additions\n",
		p.DirectHopAdditions, p.WorkSharingAdditions)
	// Output:
	// snapshots 3, common 4 edges
	// direct-hop 3 additions, work-sharing 3 additions
}

// ExampleEvolvingGraph_Watch maintains the representation of a sliding
// window as snapshots arrive.
func ExampleEvolvingGraph_Watch() {
	g := commongraph.New(3, []commongraph.Edge{{Src: 0, Dst: 1, W: 1}})
	if _, err := g.ApplyUpdates([]commongraph.Edge{{Src: 1, Dst: 2, W: 1}}, nil); err != nil {
		log.Fatal(err)
	}
	w, err := g.Watch(0, 1)
	if err != nil {
		log.Fatal(err)
	}
	// A new snapshot arrives; the watcher follows it.
	if _, err := g.ApplyUpdates(nil, []commongraph.Edge{{Src: 0, Dst: 1, W: 1}}); err != nil {
		log.Fatal(err)
	}
	if err := w.Slide(); err != nil {
		log.Fatal(err)
	}
	from, to := w.Window()
	fmt.Printf("window [%d,%d], common %d edges\n", from, to, w.CommonEdges())
	// Output:
	// window [1,2], common 1 edges
}
