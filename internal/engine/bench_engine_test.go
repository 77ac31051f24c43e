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
// distribution produces hub vertices whose rows dwarf the median.
func benchSkewed(b *testing.B) (*graph.Pair, int) {
	b.Helper()
	n, edges := gen.RMAT(gen.DefaultRMAT(15, 400_000, 3))
	return graph.NewPair(n, edges), n
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
		runSync(st, frontierOf(n, 1, 17, 33), g.OutRows())
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
							s = runSync(st, seed, layers)
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
