package commongraph

import (
	"context"
	"testing"
)

func TestIngestorCreatesSnapshots(t *testing.T) {
	g := New(6, []Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 1}})
	in, err := g.Ingestor(3)
	if err != nil {
		t.Fatal(err)
	}
	// Window 1: add two edges, delete one — a full window of 3.
	if err := in.Add(Edge{Src: 2, Dst: 3, W: 1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Add(Edge{Src: 3, Dst: 4, W: 1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Delete(Edge{Src: 0, Dst: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	if g.NumSnapshots() != 2 {
		t.Fatalf("snapshots=%d after window 1", g.NumSnapshots())
	}
	snap, _ := g.Snapshot(1)
	if len(snap) != 3 {
		t.Fatalf("snapshot 1 has %d edges", len(snap))
	}

	// Window 2: add+delete the same edge — cancels; no snapshot.
	if err := in.Add(Edge{Src: 4, Dst: 5, W: 1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Delete(Edge{Src: 4, Dst: 5, W: 1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Add(Edge{Src: 0, Dst: 1, W: 1}); err != nil { // re-add, window closes
		t.Fatal(err)
	}
	if g.NumSnapshots() != 3 {
		t.Fatalf("snapshots=%d after window 2", g.NumSnapshots())
	}
	snap2, _ := g.Snapshot(2)
	if len(snap2) != 4 {
		t.Fatalf("snapshot 2 has %d edges", len(snap2))
	}

	// Partial window + Flush.
	if err := in.Delete(Edge{Src: 1, Dst: 2, W: 1}); err != nil {
		t.Fatal(err)
	}
	if in.Pending() != 1 {
		t.Fatalf("pending=%d", in.Pending())
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if g.NumSnapshots() != 4 {
		t.Fatalf("snapshots=%d after flush", g.NumSnapshots())
	}

	// The result is a normal evolving graph: evaluate across it.
	res, err := g.Run(context.Background(), Request{Query: Query{Algorithm: BFS, Source: 0}, Window: Window{From: 0, To: 3}, Strategy: WorkSharing})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != 4 {
		t.Fatalf("evaluated %d snapshots", len(res.Snapshots))
	}
}

func TestIngestorInconsistentWindowFails(t *testing.T) {
	g := New(3, []Edge{{Src: 0, Dst: 1, W: 1}})
	in, err := g.Ingestor(1)
	if err != nil {
		t.Fatal(err)
	}
	// Deleting an edge the graph does not have fails when the window closes.
	if err := in.Delete(Edge{Src: 1, Dst: 2, W: 1}); err == nil {
		t.Fatal("inconsistent delete accepted")
	}
	if _, err := g.Ingestor(0); err == nil {
		t.Fatal("zero batch size accepted")
	}
}
