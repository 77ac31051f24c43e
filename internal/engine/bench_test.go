package engine

import (
	"fmt"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

func benchSetup(b *testing.B) (*graph.Pair, int) {
	b.Helper()
	n, edges := gen.RMAT(gen.DefaultRMAT(15, 400_000, 3))
	return graph.NewPair(n, edges), n
}

// BenchmarkFromScratch measures the initial full evaluation per algorithm
// (the cost both KickStarter and CommonGraph pay once per query).
func BenchmarkFromScratch(b *testing.B) {
	g, _ := benchSetup(b)
	for _, a := range algo.All() {
		a := a
		b.Run(a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(g, a, 0, Options{})
			}
		})
	}
}

// BenchmarkFromScratchModes contrasts the scheduler policies on a full
// evaluation.
func BenchmarkFromScratchModes(b *testing.B) {
	g, _ := benchSetup(b)
	for _, m := range []struct {
		name string
		mode Mode
	}{{"Sync", Sync}, {"Async", Async}} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(g, algo.BFS{}, 0, Options{Mode: m.mode})
			}
		})
	}
}

// BenchmarkIncrementalAdd measures addition batches of growing size —
// the core primitive of the CommonGraph strategies.
func BenchmarkIncrementalAdd(b *testing.B) {
	g, n := benchSetup(b)
	for _, size := range []int{1000, 4000, 16000} {
		size := size
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			trs, err := gen.Stream(n, g.Out.Edges(), gen.StreamConfig{Transitions: 1, Additions: size, Deletions: 0, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			add := trs[0].Additions
			ov := delta.NewOverlay(n, delta.NewBatch(add))
			og := delta.NewOverlayGraph(g, ov)
			base, _ := Run(g, algo.SSSP{}, 0, Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := base.Clone()
				b.StartTimer()
				IncrementalAdd(og, st, add, Options{})
			}
		})
	}
}

// BenchmarkStateClone measures the branch-point cost of Work-Sharing.
func BenchmarkStateClone(b *testing.B) {
	g, _ := benchSetup(b)
	st, _ := Run(g, algo.BFS{}, 0, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Clone()
	}
}
