package engine

import (
	"fmt"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

// The BenchmarkEngine* family is the hot-path micro-benchmark suite, for
// measuring while working on the engine (benchstat two runs of it). Names
// must stay stable across PRs.

// benchSkewed is the power-law workload: R-MAT's skewed degree
// distribution produces hub vertices whose rows dwarf the median, the
// shape that breaks static frontier sharding.
func benchSkewed(b *testing.B) (*graph.Pair, int) {
	b.Helper()
	n, edges := gen.RMAT(gen.DefaultRMAT(15, 400_000, 3))
	return graph.NewPair(n, edges), n
}

// benchHub is the adversarial single-hub graph: a chain feeds one vertex
// whose out-row spans almost the whole vertex set, so any scheduler that
// assigns whole vertices statically serializes on it.
func benchHub(b *testing.B) (*graph.Pair, int) {
	b.Helper()
	const n = 1 << 15
	edges := make(graph.EdgeList, 0, 2*n)
	// Short chain into the hub so the hub activates after a few levels.
	for i := 0; i < 4; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), W: 1})
	}
	hub := graph.VertexID(4)
	for v := 8; v < n; v++ {
		edges = append(edges, graph.Edge{Src: hub, Dst: graph.VertexID(v), W: gen.WeightOf(hub, graph.VertexID(v))})
	}
	return graph.NewPair(n, edges.Canonicalize()), n
}

// BenchmarkRun measures the from-scratch solve, the ordered pass every
// strategy's common-graph solve pays, per algorithm on the skewed
// workload, with the edges it relaxes.
func BenchmarkRun(b *testing.B) {
	g, _ := benchSkewed(b)
	for _, a := range algo.All() {
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var pushed int64
			for i := 0; i < b.N; i++ {
				st, s := Run(g, a, 0, Options{})
				b.StopTimer()
				pushed += s.EdgesPushed
				st.Recycle()
				b.StartTimer()
			}
			b.ReportMetric(float64(pushed)/float64(b.N), "edges/op")
		})
	}
}

// BenchmarkEngineSyncHub measures a sync pass from the chain's head on the
// single-hub graph: the iteration where the hub is the whole frontier is
// the degenerate load-balance case.
func BenchmarkEngineSyncHub(b *testing.B) {
	g, n := benchHub(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSync(NewState(n, algo.SSSP{}, 0), frontierOf(n, 0), g.OutRows(), Options{}.workers())
	}
}

// BenchmarkEngineSyncSmallFrontier forces a sync pass onto a tiny seed:
// the cost here is dominated by frontier bookkeeping (scan + clear), not
// edge work — the case the sparse representation exists for.
func BenchmarkEngineSyncSmallFrontier(b *testing.B) {
	g, n := benchSkewed(b)
	base, _ := Run(g, algo.SSSP{}, 0, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := base.Clone()
		b.StartTimer()
		runSync(st, frontierOf(n, 1, 17, 33), g.OutRows(), Options{}.workers())
	}
}

// BenchmarkEngineAsyncWorklist measures the asynchronous worklist from
// scratch on the skewed workload.
func BenchmarkEngineAsyncWorklist(b *testing.B) {
	g, n := benchSkewed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAsync(NewState(n, algo.BFS{}, 0), frontierOf(n, 0), g.OutRows())
	}
}

// BenchmarkAsyncCutover prices one incremental pass through the async
// drain and through the sync pass, each called directly on the same
// seeded frontier — the measurement asyncCutoff is set from (DESIGN.md
// "Engine" records the table). The frontier is what an addition batch
// seeds over the common fixpoint, the shape a hop's pass starts from;
// batch sizes are picked to seed about 256 to 16 384 vertices.
func BenchmarkAsyncCutover(b *testing.B) {
	g, n := benchSkewed(b)
	for _, a := range []algo.Algorithm{algo.BFS{}, algo.SSSP{}} {
		base, _ := Run(g, a, 0, Options{})
		for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
			trs, err := gen.Stream(n, g.Out.Edges(), gen.StreamConfig{Transitions: 1, Additions: size, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			add := trs[0].Additions
			layers := delta.NewOverlayGraph(g, delta.NewOverlay(n, delta.NewBatch(add))).OutRows()
			probe := base.Clone()
			seed, _ := seedParts(probe, [][]graph.Edge{add}, len(add))
			for _, mode := range []string{"async", "sync"} {
				b.Run(fmt.Sprintf("%s/seeds=%d/%s", a.Name(), seed.count(), mode), func(b *testing.B) {
					var pushed int64
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						st := base.CloneRecycled()
						seed, _ := seedParts(st, [][]graph.Edge{add}, len(add))
						b.StartTimer()
						var s Stats
						if mode == "async" {
							s = runAsync(st, seed, layers)
						} else {
							s = runSync(st, seed, layers, Options{}.workers())
						}
						b.StopTimer()
						pushed += s.EdgesPushed
						st.Recycle()
						b.StartTimer()
					}
					b.ReportMetric(float64(pushed)/float64(b.N), "edges/op")
				})
			}
		}
	}
}

// BenchmarkEngineIncrementalAdd measures the incremental-addition
// primitive under the input-chosen scheduler — the per-hop cost of the
// CommonGraph strategies.
func BenchmarkEngineIncrementalAdd(b *testing.B) {
	g, n := benchSkewed(b)
	trs, err := gen.Stream(n, g.Out.Edges(), gen.StreamConfig{Transitions: 1, Additions: 4000, Deletions: 0, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	add := trs[0].Additions
	ov := delta.NewOverlay(n, delta.NewBatch(add))
	og := delta.NewOverlayGraph(g, ov)
	base, _ := Run(g, algo.SSSP{}, 0, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := base.Clone()
		b.StartTimer()
		IncrementalAdd(og, st, add, Options{})
	}
}

// BenchmarkEngineIterationCrossover prices one sync iteration of about E
// frontier edges on the calling goroutine (workers=1) against the same
// iteration handed to two workers, on both frontier representations — the
// measurement seqEdgeCutoff is set from (DESIGN.md records the crossover).
// The frontier's values sit one below their fixpoint, so the iteration
// improves the share of its edges a hop's pass does, not none.
func BenchmarkEngineIterationCrossover(b *testing.B) {
	g, n := benchSkewed(b)
	base, _ := Run(g, algo.SSSP{}, 0, Options{})
	layers := g.OutRows()
	for _, dense := range []bool{false, true} {
		for _, target := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
			// Sparse frontiers take the vertices in id order (hubs first in
			// R-MAT); dense ones need more than n/sparseKeepDenom vertices,
			// so they take every reached vertex from the low-degree end.
			cur := newFrontier(n)
			edges := 0
			for i := 0; i < n && (edges < target || dense && cur.isSparse()); i++ {
				v := graph.VertexID(i)
				if dense {
					v = graph.VertexID(n - 1 - i)
				}
				if base.Value(v) == algo.Infinity || base.Value(v) == 0 {
					continue
				}
				cur.setSeq(v)
				edges += degree(layers, v)
			}
			if cur.isSparse() == dense {
				continue // this graph has no frontier of that shape at this size
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("dense=%v/E=%d/workers=%d", dense, edges, workers), func(b *testing.B) {
					var pushed, improved int64
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						st := base.CloneRecycled()
						cur.forEachInWordRange(0, cur.words(), func(v graph.VertexID) {
							val, p := st.Load(v)
							st.Reset(v, val-1, p)
						})
						r := &syncRunner{st: st, alg: st.a, id: st.a.Identity(), min: st.minimize(),
							layers: layers, workers: workers, next: newFrontier(n)}
						prefix := make([]int, len(cur.list())+1)
						total := 0
						for i, u := range cur.list() {
							prefix[i] = total
							total += degree(layers, u)
						}
						prefix[len(cur.list())] = total
						b.StartTimer()
						var p, imp int64
						switch {
						case workers == 1 && dense:
							p, imp = r.denseSeq(cur)
						case workers == 1:
							p, imp = r.sparseSeq(cur.list())
						case dense:
							p, imp = r.densePar(cur)
						default:
							p, imp = r.sparsePar(cur.list(), prefix, total)
						}
						b.StopTimer()
						pushed, improved = pushed+p, improved+imp
						st.Recycle()
						b.StartTimer()
					}
					b.ReportMetric(float64(improved)/float64(pushed), "improved/edge")
				})
			}
		}
	}
}
