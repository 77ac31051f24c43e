package commongraph

// Cross-cutting integration tests: dataset round-trips feeding evaluation,
// concurrent use of one EvolvingGraph, and a long-horizon stress run over
// every strategy.

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"commongraph/internal/dataset"
)

func TestDatasetRoundTripPreservesResults(t *testing.T) {
	g, _ := buildEvolving(t, 401, 6, 40, 40)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := dataset.Save(dir, g.Store(), dataset.Binary); err != nil {
		t.Fatal(err)
	}
	store, err := dataset.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded := FromStore(store)
	if loaded.NumSnapshots() != g.NumSnapshots() || loaded.NumVertices() != g.NumVertices() {
		t.Fatalf("shape changed across disk: %d/%d vs %d/%d",
			loaded.NumSnapshots(), loaded.NumVertices(), g.NumSnapshots(), g.NumVertices())
	}
	q := Query{Algorithm: SSNP, Source: 0}
	want, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 6}, Strategy: WorkSharing})
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 6}, Strategy: WorkSharing})
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Snapshots {
		if want.Snapshots[k].Checksum != got.Snapshots[k].Checksum {
			t.Fatalf("snapshot %d changed across a disk round trip", k)
		}
	}
}

func TestConcurrentEvaluations(t *testing.T) {
	// The EvolvingGraph documents safety for concurrent Evaluate calls;
	// hammer one instance from several goroutines with different
	// strategies and algorithms, on the same and on overlapping windows,
	// and check every result against a serial re-run. The goroutines race
	// to build each window's plan: every representation and every
	// schedule must come out built exactly once (run with -race -count=10).
	g, _ := buildEvolving(t, 409, 5, 30, 30)
	type job struct {
		q Query
		s Strategy
		w Window
	}
	full, head, tail := Window{From: 0, To: 5}, Window{From: 0, To: 3}, Window{From: 2, To: 5}
	var jobs []job
	for _, w := range []Window{full, head, tail} {
		jobs = append(jobs,
			job{Query{Algorithm: BFS, Source: 0}, DirectHop, w},
			job{Query{Algorithm: SSSP, Source: 3}, WorkSharing, w},
			job{Query{Algorithm: SSNP, Source: 1}, DirectHopParallel, w},
			job{Query{Algorithm: Viterbi, Source: 0}, WorkSharingParallel, w},
			job{Query{Algorithm: SSSP, Source: 3}, WorkSharingParallel, w},
		)
	}
	jobs = append(jobs,
		job{Query{Algorithm: SSWP, Source: 7}, KickStarter, full},
		job{Query{Algorithm: BFS, Source: 9}, Independent, full},
	)
	pc := NewPlanCache() // its Stats count the plan constructions
	results := make([]*Result, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			res, err := g.Run(context.Background(), Request{Query: j.q, Window: Window{From: j.w.From, To: j.w.To}, Strategy: j.s, Options: Options{Plan: pc}})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			results[i] = res
		}(i, j)
	}
	wg.Wait()
	if st := pc.Stats(); st.RepMisses != 3 || st.SchedMisses != 3 {
		t.Errorf("3 windows, one solver: want 3 representations and 3 schedules built, got %+v", st)
	}
	for i, j := range jobs {
		if results[i] == nil {
			continue
		}
		serial, err := g.Run(context.Background(), Request{Query: j.q, Window: Window{From: j.w.From, To: j.w.To}, Strategy: j.s})
		if err != nil {
			t.Fatal(err)
		}
		for k := range serial.Snapshots {
			if serial.Snapshots[k].Checksum != results[i].Snapshots[k].Checksum {
				t.Fatalf("job %d: concurrent result differs at snapshot %d", i, k)
			}
		}
	}
}

func TestLongHorizonAllStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// 30 transitions with heavy churn; every strategy must agree on every
	// snapshot, including after delete/re-add cycles the random stream
	// occasionally produces.
	g, _ := buildEvolving(t, 419, 30, 60, 60)
	q := Query{Algorithm: SSSP, Source: 0}
	strategies := []Strategy{Independent, KickStarter, DirectHop, DirectHopParallel, WorkSharing, WorkSharingParallel}
	var base *Result
	for _, s := range strategies {
		res, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 30}, Strategy: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Snapshots) != 31 {
			t.Fatalf("%v: %d snapshots", s, len(res.Snapshots))
		}
		if base == nil {
			base = res
			continue
		}
		for k := range base.Snapshots {
			if base.Snapshots[k].Checksum != res.Snapshots[k].Checksum {
				t.Fatalf("%v disagrees with %v at snapshot %d", s, strategies[0], k)
			}
		}
	}
}
