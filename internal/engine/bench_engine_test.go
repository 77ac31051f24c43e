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

// BenchmarkEngineSyncPass measures the level-synchronous from-scratch
// solve on the skewed workload — the sync-pass cost every strategy's
// common-graph solve pays.
func BenchmarkEngineSyncPass(b *testing.B) {
	g, _ := benchSkewed(b)
	for _, a := range []algo.Algorithm{algo.BFS{}, algo.SSSP{}} {
		a := a
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Run(g, a, 0, Options{Mode: Sync})
			}
		})
	}
}

// BenchmarkEngineSyncHub measures the sync pass on the single-hub graph:
// the iteration where the hub is the whole frontier is the degenerate
// load-balance case.
func BenchmarkEngineSyncHub(b *testing.B) {
	g, _ := benchHub(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, algo.SSSP{}, 0, Options{Mode: Sync})
	}
}

// BenchmarkEngineSyncSmallFrontier forces Sync mode onto a tiny seed: the
// cost here is dominated by frontier bookkeeping (scan + clear), not edge
// work — the case the sparse representation exists for.
func BenchmarkEngineSyncSmallFrontier(b *testing.B) {
	g, _ := benchSkewed(b)
	base, _ := Run(g, algo.SSSP{}, 0, Options{Mode: Sync})
	seeds := []graph.VertexID{1, 17, 33}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := base.Clone()
		b.StartTimer()
		Propagate(g, st, seeds, Options{Mode: Sync})
	}
}

// BenchmarkEngineAsyncWorklist measures the asynchronous worklist from
// scratch on the skewed workload.
func BenchmarkEngineAsyncWorklist(b *testing.B) {
	g, _ := benchSkewed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, algo.BFS{}, 0, Options{Mode: Async})
	}
}

// BenchmarkEngineIncrementalAdd measures the incremental-addition
// primitive under the Auto scheduler — the per-hop cost of the
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
	layers := flatten(g)
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
						r := &syncRunner{g: g, st: st, alg: st.a, id: st.a.Identity(), min: st.minimize(),
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
