package commongraph

// One benchmark per table and figure of the paper's evaluation (§5) plus
// the motivating Figure 1 and the design-choice ablations. Each benchmark
// executes the corresponding experiment at the default scale and, on its
// first iteration, prints the reproduced table so `go test -bench=.`
// output doubles as the regenerated evaluation (see EXPERIMENTS.md for the
// paper-vs-measured comparison).
//
// Workloads are generated deterministically and cached across benchmarks
// within the process, so the expensive stand-in graphs build once.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"commongraph/internal/bench"
)

var printOnce sync.Map

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	p := bench.Default()
	e, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(name, true); !done {
			b.StopTimer()
			fmt.Fprintln(os.Stdout)
			tab.Fprint(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkFig1 regenerates Figure 1: the incremental-computation and
// graph-mutation cost of deletion batches versus addition batches.
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkTable2 regenerates Table 2: the input graph inventory
// (stand-in statistics next to the paper's originals).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable4 regenerates Table 4: KickStarter's 50-snapshot time and
// the Direct-Hop / Work-Sharing speedups on all graph×algorithm pairs.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5 regenerates Table 5: the longest single Direct-Hop hop
// (the one-core-per-snapshot estimate) and its speedup over KickStarter.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFig8 regenerates Figure 8: execution time as the number of
// snapshots grows from 5 to 50 on the TTW stand-in.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9: batch size versus snapshot count at
// a fixed total number of updates.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10: Direct-Hop speedup under varying
// addition:deletion ratios.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11: the per-phase execution-time
// breakdown of KickStarter versus CommonGraph.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkAblationSteiner compares the Steiner solvers' schedule costs
// and runtimes (DESIGN.md ablation A1).
func BenchmarkAblationSteiner(b *testing.B) { benchExperiment(b, "ablation-steiner") }

// BenchmarkAblationScheduler compares the engine scheduler policies on
// the Direct-Hop workload (DESIGN.md ablation A2).
func BenchmarkAblationScheduler(b *testing.B) { benchExperiment(b, "ablation-scheduler") }

// BenchmarkAblationRepresentation isolates in-place mutation versus
// overlay construction (DESIGN.md ablation A3).
func BenchmarkAblationRepresentation(b *testing.B) { benchExperiment(b, "ablation-representation") }

// BenchmarkAblationScale shows the speedups' dependence on workload scale
// (DESIGN.md ablation A4).
func BenchmarkAblationScale(b *testing.B) { benchExperiment(b, "ablation-scale") }

// BenchmarkEvaluateStrategies measures the public API end to end on a
// small evolving graph, one sub-benchmark per strategy.
func BenchmarkEvaluateStrategies(b *testing.B) {
	g := benchGraph(b)
	q := Query{Algorithm: SSSP, Source: 0}
	for _, s := range []Strategy{KickStarter, DirectHop, DirectHopParallel, WorkSharing} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: g.NumSnapshots() - 1}, Strategy: s}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	benchG     *EvolvingGraph
	benchGOnce sync.Once
)

func benchGraph(b *testing.B) *EvolvingGraph {
	b.Helper()
	benchGOnce.Do(func() {
		w, err := bench.BuildWorkload("LJ-sim", bench.Tiny(), 10, 200, 200)
		if err != nil {
			panic(err)
		}
		benchG = &EvolvingGraph{}
		g := New(w.N, w.Base)
		for t := 0; t < w.Store.NumVersions()-1; t++ {
			if _, err := g.ApplyUpdates(w.Store.Additions(t).Edges(), w.Store.Deletions(t).Edges()); err != nil {
				panic(err)
			}
		}
		benchG = g
	})
	return benchG
}

// BenchmarkAblationBaselines lines up every strategy including the naive
// Independent baseline (DESIGN.md ablation A5).
func BenchmarkAblationBaselines(b *testing.B) { benchExperiment(b, "ablation-baselines") }

// BenchmarkStorePersistence regenerates the Persistence table: durable
// cold open vs text re-ingest and the WAL append cost (ISSUE 5).
func BenchmarkStorePersistence(b *testing.B) { benchExperiment(b, "store") }
