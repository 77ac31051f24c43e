package commongraph

// Cold-start benchmarks for the durable store (ISSUE 5): BenchmarkColdOpen
// is the restarted service's time-to-first-answer from a persisted store;
// BenchmarkTextIngest is the same first answer from the text edge list the
// service used to re-parse. BenchmarkWALAppend prices the fsynced journal
// write the ingest path pays per push.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"commongraph/internal/gen"
	"commongraph/internal/graph"
	"commongraph/internal/store"
)

// benchStoreFixture persists an LJ-sim evolving graph once and returns the
// store directory, the text path of its final snapshot, and the final
// version index.
func benchStoreFixture(tb testing.TB) (storeDir, textPath string, last int) {
	tb.Helper()
	s, ok := gen.ByName("LJ-sim")
	if !ok {
		tb.Fatal("LJ-sim stand-in missing")
	}
	n, base := s.Build(1)
	trs, err := gen.Stream(n, base, gen.StreamConfig{
		Transitions: 4, Additions: 3000, Deletions: 750, Seed: 0x5703E,
	})
	if err != nil {
		tb.Fatal(err)
	}
	g := New(n, base)
	for _, tr := range trs {
		if _, err := g.ApplyUpdates(tr.Additions, tr.Deletions); err != nil {
			tb.Fatal(err)
		}
	}
	dir := tb.TempDir()
	storeDir = filepath.Join(dir, "store")
	gs, err := g.Persist(storeDir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := gs.Close(); err != nil {
		tb.Fatal(err)
	}
	last = g.NumSnapshots() - 1
	final, err := g.Snapshot(last)
	if err != nil {
		tb.Fatal(err)
	}
	textPath = filepath.Join(dir, "final.txt")
	f, err := os.Create(textPath)
	if err != nil {
		tb.Fatal(err)
	}
	if err := graph.WriteText(f, n, final); err != nil {
		f.Close()
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return storeDir, textPath, last
}

func benchFirstQuery(tb testing.TB, g *EvolvingGraph, version int) {
	tb.Helper()
	a, ok := AlgorithmByName("BFS")
	if !ok {
		tb.Fatal("bfs algorithm missing")
	}
	_, err := g.Run(context.Background(), Request{
		Query:    Query{Algorithm: a, Source: 0},
		Window:   Window{From: version, To: version},
		Strategy: DirectHop,
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkColdOpen measures store open + first query: manifest read, lazy
// binary segment loads, snapshot materialization, then one BFS on the
// latest snapshot.
func BenchmarkColdOpen(b *testing.B) {
	storeDir, _, last := benchStoreFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := OpenEvolvingGraph(storeDir)
		if err != nil {
			b.Fatal(err)
		}
		benchFirstQuery(b, g, last)
	}
}

// BenchmarkTextIngest is the pre-store baseline for the same first answer:
// parse the final snapshot's text edge list, build the graph, run BFS.
// ColdOpen must stay measurably below this line.
func BenchmarkTextIngest(b *testing.B) {
	_, textPath, _ := benchStoreFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(textPath)
		if err != nil {
			b.Fatal(err)
		}
		n, edges, err := graph.ReadText(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
		benchFirstQuery(b, New(n, edges), 0)
	}
}

// BenchmarkWALAppend measures one fsynced journal append of a 64-update
// window — the durability cost the ingest path pays per full window.
func BenchmarkWALAppend(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "store")
	s, err := store.Create(dir, 1024, graph.EdgeList{{Src: 0, Dst: 1, W: 1}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const window = 64
	us := make([]store.RawUpdate, window)
	for i := range us {
		us[i] = store.RawUpdate{Op: store.RawAdd, Edge: graph.Edge{
			Src: graph.VertexID(i % 1024), Dst: graph.VertexID((i + 1) % 1024), W: 1}}
	}
	b.SetBytes(28 * window)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Journal(us); err != nil {
			b.Fatal(err)
		}
	}
}
