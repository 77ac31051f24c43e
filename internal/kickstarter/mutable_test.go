package kickstarter

import (
	"math/rand"
	"sort"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

// checkRows asserts that every view of g — the flat OutRows layer the
// engine walks, OutEdges, Edges and the mirrored in-rows — holds exactly
// want, and that the slack layout is sound: rows lie inside the array,
// never overlap, and the holes are exactly the slots no row owns.
func checkRows(t *testing.T, g *MutableGraph, want map[graph.EdgeKey]graph.Weight) {
	t.Helper()
	var list graph.EdgeList
	for k, w := range want {
		list = append(list, graph.Edge{Src: k.Src(), Dst: k.Dst(), W: w})
	}
	list = list.Canonicalize()
	var rows, outs, ins graph.EdgeList
	for _, L := range g.OutRows() {
		for u := 0; u < g.n; u++ {
			for p := L.Starts[u]; p < L.Ends[u]; p++ {
				rows = append(rows, graph.Edge{Src: graph.VertexID(u), Dst: L.Targets[p], W: L.Weights[p]})
			}
		}
	}
	for u := 0; u < g.n; u++ {
		g.OutEdges(graph.VertexID(u), func(v graph.VertexID, w graph.Weight) {
			outs = append(outs, graph.Edge{Src: graph.VertexID(u), Dst: v, W: w})
		})
		g.InEdges(graph.VertexID(u), func(s graph.VertexID, w graph.Weight) {
			ins = append(ins, graph.Edge{Src: s, Dst: graph.VertexID(u), W: w})
		})
	}
	for name, got := range map[string]graph.EdgeList{"OutRows": rows, "OutEdges": outs, "InEdges": ins, "Edges": g.Edges()} {
		if !graph.Equal(got.Canonicalize(), list) {
			t.Fatalf("%s holds %d edges, want the %d applied", name, len(got), len(list))
		}
	}
	if g.NumEdges() != len(list) {
		t.Fatalf("NumEdges %d, want %d", g.NumEdges(), len(list))
	}
	order := make([]int, g.n)
	owned := 0
	for v := range order {
		order[v] = v
		if g.start[v] > g.end[v] || g.end[v] > g.limit[v] || int(g.limit[v]) > len(g.tgts) || len(g.wts) != len(g.tgts) {
			t.Fatalf("row %d: start %d end %d limit %d in an array of %d", v, g.start[v], g.end[v], g.limit[v], len(g.tgts))
		}
		owned += int(g.limit[v] - g.start[v])
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		return g.start[a] < g.start[b] || g.start[a] == g.start[b] && g.limit[a] < g.limit[b]
	})
	for i := 1; i < len(order); i++ {
		if a, b := order[i-1], order[i]; g.limit[a] > g.start[b] {
			t.Fatalf("rows %d [%d,%d) and %d [%d,%d) overlap", a, g.start[a], g.limit[a], b, g.start[b], g.limit[b])
		}
	}
	if g.holes != len(g.tgts)-owned {
		t.Fatalf("holes %d, but %d of %d slots are unowned", g.holes, len(g.tgts)-owned, len(g.tgts))
	}
}

// TestMutableRowsMatchEdges drives the slack layout through random add and
// delete batches — rows filling past capacity and relocating, compaction,
// a row's last edge deleted, deleted edges re-added — and checks every
// view of the graph against the applied edge set after each batch.
func TestMutableRowsMatchEdges(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(7))
	want := map[graph.EdgeKey]graph.Weight{}
	var initial graph.EdgeList
	for len(initial) < 3*n {
		e := graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(9))}
		if _, dup := want[e.Key()]; !dup {
			want[e.Key()] = e.W
			initial = append(initial, e)
		}
	}
	g := NewMutableGraph(n, initial.Canonicalize())
	checkRows(t, g, want)
	var deleted graph.EdgeList // candidates for re-adding
	relocations, compactions := 0, 0
	for round := 0; round < 200; round++ {
		// Additions lean on a few hot rows so they outgrow their capacity
		// repeatedly; a third of them re-add deleted edges.
		var add graph.EdgeList
		for k := rng.Intn(3 * n); len(add) < k; {
			var e graph.Edge
			if len(deleted) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(deleted))
				e = deleted[i]
				deleted = append(deleted[:i], deleted[i+1:]...)
			} else {
				src := rng.Intn(n)
				if rng.Intn(2) == 0 {
					src = rng.Intn(4)
				}
				e = graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(9))}
			}
			if _, dup := want[e.Key()]; !dup {
				want[e.Key()] = e.W
				add = append(add, e)
			}
		}
		caps := make([]int32, n)
		for v := range caps {
			caps[v] = g.limit[v] - g.start[v]
		}
		holes := g.holes
		g.AddBatch(add)
		for v, c := range caps {
			if g.limit[v]-g.start[v] > c {
				relocations++
			}
		}
		if g.holes < holes {
			compactions++
		}
		checkRows(t, g, want)

		// Deletions: random live edges, and every few rounds a whole row,
		// so its last edge goes too.
		var del graph.EdgeList
		for k, w := range want {
			if rng.Intn(3) == 0 || round%5 == 0 && k.Src() == graph.VertexID(round%n) {
				del = append(del, graph.Edge{Src: k.Src(), Dst: k.Dst(), W: w})
			}
		}
		rng.Shuffle(len(del), func(i, j int) { del[i], del[j] = del[j], del[i] })
		if err := g.DeleteBatch(del); err != nil {
			t.Fatal(err)
		}
		for _, e := range del {
			delete(want, e.Key())
		}
		deleted = append(deleted, del...)
		checkRows(t, g, want)
	}
	if relocations == 0 || compactions == 0 {
		t.Fatalf("%d relocations and %d compactions: the layout's slow paths went untested", relocations, compactions)
	}
}

// TestMutableGraphEngineMatchesReference runs the engine over KickStarter's
// slack layout, from scratch and incrementally, against the Reference
// oracle. Added as one batch, the 800 hub rows seed far more than the
// async cutoff, and the R-MAT edges behind them give the sync pass dense
// levels, so its sparse and dense iterations walk relocated rows.
func TestMutableGraphEngineMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("large engine differential skipped in -short")
	}
	n, edges := gen.RMAT(gen.DefaultRMAT(14, 100_000, 31))
	src := graph.VertexID(n - 1) // R-MAT's sparsest corner: the hubs below are its only out-edges
	rng := rand.New(rand.NewSource(31))
	var rows graph.EdgeList
	for h := 1; h <= 800; h++ {
		hub := src - graph.VertexID(h)
		edges = append(edges, graph.Edge{Src: src, Dst: hub, W: 1})
		for j := 0; j < 300; j++ {
			rows = append(rows, graph.Edge{Src: hub, Dst: graph.VertexID(rng.Intn(n)), W: graph.Weight(1 + rng.Intn(9))})
		}
	}
	base := edges.Canonicalize()
	inBase := make(map[graph.EdgeKey]bool, len(base))
	for _, e := range base {
		inBase[e.Key()] = true
	}
	var batch graph.EdgeList
	for _, e := range rows.Canonicalize() {
		if !inBase[e.Key()] {
			batch = append(batch, e)
		}
	}
	for _, a := range []algo.Algorithm{algo.BFS{}, algo.SSSP{}} {
		full := NewMutableGraph(n, base)
		full.AddBatch(batch)
		ref := engine.Reference(full, a, src)
		if st, _ := engine.Run(full, a, src, engine.Options{}); !engine.ValuesEqual(st, ref) {
			t.Fatalf("%s: Run diverges from the reference", a.Name())
		}
		g := NewMutableGraph(n, base)
		st, _ := engine.Run(g, a, src, engine.Options{})
		g.AddBatch(batch)
		if stats := engine.IncrementalAdd(g, st, batch, engine.Options{}); stats.Iterations == 0 {
			t.Fatalf("%s: the batch should seed a sync pass", a.Name())
		}
		if !engine.ValuesEqual(st, ref) {
			t.Fatalf("%s: IncrementalAdd diverges from the reference", a.Name())
		}
	}
}
