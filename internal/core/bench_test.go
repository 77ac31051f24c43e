package core

import (
	"fmt"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
	"commongraph/internal/snapshot"
)

func benchWindow(b *testing.B, snaps int) Window {
	b.Helper()
	n, base := gen.RMAT(gen.DefaultRMAT(14, 250_000, 17))
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: snaps - 1, Additions: 1000, Deletions: 1000, Seed: 19})
	if err != nil {
		b.Fatal(err)
	}
	s := snapshot.NewStore(n, base)
	for _, tr := range trs {
		if _, err := s.NewVersion(tr.Additions, tr.Deletions); err != nil {
			b.Fatal(err)
		}
	}
	return Window{Store: s, From: 0, To: snaps - 1}
}

// BenchmarkBuildRep measures common-graph representation construction.
func BenchmarkBuildRep(b *testing.B) {
	w := benchWindow(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRep(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintainedSlide measures one Slide of a 16-wide window over
// LJ-sim at the default scale with 500 + 500 updates per transition —
// what a live window pays per new snapshot where BuildRep would be paid
// otherwise. The window is rebuilt, off the clock, every 32 slides.
func BenchmarkMaintainedSlide(b *testing.B) {
	const width, slides = 16, 32
	lj, ok := gen.ByName("LJ-sim")
	if !ok {
		b.Fatal("LJ-sim stand-in missing")
	}
	n, base := lj.Build(1)
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: width - 1 + slides, Additions: 500, Deletions: 500, Seed: 29})
	if err != nil {
		b.Fatal(err)
	}
	s := snapshot.NewStore(n, base)
	for _, tr := range trs {
		if _, err := s.NewVersion(tr.Additions, tr.Deletions); err != nil {
			b.Fatal(err)
		}
	}
	var m *MaintainedRep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%slides == 0 {
			b.StopTimer()
			if m, err = NewMaintainedRep(Window{Store: s, From: 0, To: width - 1}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := m.Slide(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTG measures Triangular Grid construction.
func BenchmarkBuildTG(b *testing.B) {
	w := benchWindow(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTG(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteinerSolvers contrasts the paper's greedy with the exact
// solver at the benchmark's window width and well past it (brute force is
// exponential and excluded here; see the tests).
func BenchmarkSteinerSolvers(b *testing.B) {
	for _, width := range []int{56, 256} {
		tg, err := BuildTG(benchWindow(b, width))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range []struct {
			name  string
			solve func(*TG) *SteinerTree
		}{{"Greedy", SteinerGreedy}, {"IntervalDP", SteinerIntervalDP}} {
			b.Run(fmt.Sprintf("%s/w=%d", s.name, width), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.solve(tg)
				}
			})
		}
	}
}

// BenchmarkLabels measures label materialization for a full greedy tree.
func BenchmarkLabels(b *testing.B) {
	w := benchWindow(b, 50)
	tg, err := BuildTG(w)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := NewSchedule(tg, SteinerGreedy(tg))
	if err != nil {
		b.Fatal(err)
	}
	edges := sched.GridEdges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.Labels(edges)
	}
}

// BenchmarkStrategies runs the three evaluation strategies end to end on
// the same window.
func BenchmarkStrategies(b *testing.B) {
	w := benchWindow(b, 50)
	rep, err := BuildRep(w)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Algo: algo.SSSP{}, Source: 0}
	b.Run("DirectHop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DirectHop(rep, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DirectHopParallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DirectHopParallel(rep, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WorkSharing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := EvaluateWorkSharing(rep, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUnitWidth measures the worker-budget rule on DirectHopParallel
// over a window shaped like the repository benchmark's dh-wide (LJ-sim at
// twice the default size, 36 snapshots, 750 + 750 updates per transition)
// at budget B = 2: one hop in flight, two (the rule, min(units, B)), and
// all 36 at once.
// The common fixpoint is handed in, as a PlanCache does, so the hops and
// the seed chain are what is timed. DESIGN.md "Engine" records the table.
func BenchmarkUnitWidth(b *testing.B) {
	lj, ok := gen.ByName("LJ-sim")
	if !ok {
		b.Fatal("LJ-sim stand-in missing")
	}
	n, base := lj.Build(2)
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 35, Additions: 750, Deletions: 750, Seed: 37})
	if err != nil {
		b.Fatal(err)
	}
	s := snapshot.NewStore(n, base)
	for _, tr := range trs {
		if _, err := s.NewVersion(tr.Additions, tr.Deletions); err != nil {
			b.Fatal(err)
		}
	}
	rep, err := BuildRep(Window{Store: s, From: 0, To: 35})
	if err != nil {
		b.Fatal(err)
	}
	// The source of highest out-degree, as the repository benchmark draws
	// its sources from the best-connected vertices.
	deg := make([]int, n)
	var src graph.VertexID
	for _, e := range base {
		if deg[e.Src]++; deg[e.Src] > deg[src] {
			src = e.Src
		}
	}
	common, _ := engine.Run(rep.Base, algo.SSSP{}, src, engine.Options{})
	cfg := Config{Algo: algo.SSSP{}, Source: src, Workers: 2, Common: common}
	star := rep.star()
	for _, width := range []int{1, 2, len(star.Root.Edges)} {
		b.Run(fmt.Sprintf("inflight=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x, err := start(rep, cfg, "direct-hop-parallel")
				if err == nil {
					err = x.run(star, true, width)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTracingOverhead contrasts the same end-to-end Work-Sharing
// evaluation with tracing disabled (the default: a nil tracer, one
// pointer test per instrumented site) and enabled. The disabled variant
// is the regression gate of the observability layer — it must stay
// within ~2% of the pre-instrumentation baseline (compare against
// "Untraced" with benchstat); the enabled variant merely bounds the
// opt-in cost.
func BenchmarkTracingOverhead(b *testing.B) {
	w := benchWindow(b, 50)
	rep, err := BuildRep(w)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Untraced", func(b *testing.B) {
		cfg := Config{Algo: algo.SSSP{}, Source: 0}
		for i := 0; i < b.N; i++ {
			if _, _, err := EvaluateWorkSharing(rep, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Traced", func(b *testing.B) {
		tr := obs.New()
		for i := 0; i < b.N; i++ {
			root := tr.StartSpan("evaluate")
			cfg := Config{Algo: algo.SSSP{}, Source: 0, Trace: root}
			if _, _, err := EvaluateWorkSharing(rep, cfg); err != nil {
				b.Fatal(err)
			}
			root.End()
			tr.Reset()
		}
	})
}
