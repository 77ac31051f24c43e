package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/faults"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
)

func TestWorkSharingParallelMatchesSequential(t *testing.T) {
	s, n := randomStore(211, 8, 50, 50)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algo.All() {
		cfg := Config{Algo: a, Source: 0, KeepValues: true}
		seq, _, err := EvaluateWorkSharing(rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, sched, err := evaluateWSP(rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if par.AdditionsProcessed != seq.AdditionsProcessed {
			t.Fatalf("%s: parallel streamed %d additions, sequential %d",
				a.Name(), par.AdditionsProcessed, seq.AdditionsProcessed)
		}
		if sched == nil || par.MaxHopTime <= 0 {
			t.Fatalf("%s: missing schedule or subtree timing", a.Name())
		}
		for k := range seq.Snapshots {
			if seq.Snapshots[k].Checksum != par.Snapshots[k].Checksum {
				t.Fatalf("%s: snapshot %d checksum differs", a.Name(), k)
			}
			for v := 0; v < n; v++ {
				if seq.Snapshots[k].Values[v] != par.Snapshots[k].Values[v] {
					t.Fatalf("%s: snapshot %d vertex %d differs", a.Name(), k, v)
				}
			}
		}
	}
}

// evaluateWSP runs WorkSharingParallel along the rep's own schedule.
func evaluateWSP(rep *Rep, cfg Config) (*Result, *Schedule, error) {
	tg, sched, _, err := rep.Schedule(cfg.Ctx)
	if err != nil {
		return nil, nil, err
	}
	res, err := WorkSharingParallel(rep, tg, sched, cfg)
	return res, sched, err
}

// TestWorkSharingParallelBoundedParallelism: under every worker budget,
// from one unit at a time to more workers than units, the concurrent
// strategies reach the sequential values.
func TestWorkSharingParallelBoundedParallelism(t *testing.T) {
	s, _ := randomStore(223, 6, 40, 40)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 6})
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := EvaluateWorkSharing(rep, Config{Algo: algo.BFS{}, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 2, 3, 16} {
		cfg := Config{Algo: algo.BFS{}, Source: 0, Workers: b}
		ws, _, err := evaluateWSP(rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dh, err := DirectHopParallel(rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := range seq.Snapshots {
			if seq.Snapshots[k].Checksum != ws.Snapshots[k].Checksum || seq.Snapshots[k].Checksum != dh.Snapshots[k].Checksum {
				t.Fatalf("budget %d: snapshot %d differs", b, k)
			}
		}
	}
}

// TestWorkerBudgetBoundsUnitsInFlight: a concurrent strategy never has
// more units running than its worker budget, as the
// commongraph_workers_busy gauge reads at every schedule edge, and its
// values stay exact.
func TestWorkerBudgetBoundsUnitsInFlight(t *testing.T) {
	f := newFaultFixture(t, 431, 10)
	busy := obs.WorkersBusy()
	for _, name := range concurrent {
		for _, b := range []int{1, 2, 3} {
			var peak atomic.Int64
			disarm := faults.Arm(&faults.Plan{Observer: func(p faults.Point, _ int) {
				if p != faults.CoreSubtreeWalk {
					return
				}
				for {
					cur, now := peak.Load(), busy.Value()
					if now <= cur || peak.CompareAndSwap(cur, now) {
						return
					}
				}
			}})
			cfg := f.cfg
			cfg.Workers = b
			res, err := f.strategies()[name](cfg)
			disarm()
			if err != nil {
				t.Fatal(err)
			}
			if got := peak.Load(); got > int64(b) || (b > 1 && got == 0) {
				t.Fatalf("%s budget %d: %d units were busy at once", name, b, got)
			}
			f.assertMatchesClean(t, res)
		}
	}
}

func TestWorkSharingParallelSingleSnapshot(t *testing.T) {
	s, _ := randomStore(227, 3, 20, 20)
	rep, err := BuildRep(Window{Store: s, From: 1, To: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := evaluateWSP(rep, Config{Algo: algo.SSWP{}, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != 1 {
		t.Fatalf("snapshots=%d", len(res.Snapshots))
	}
}

func TestWorkSharingParallelWidthMismatch(t *testing.T) {
	s, _ := randomStore(229, 4, 20, 20)
	rep, _ := BuildRep(Window{Store: s, From: 0, To: 4})
	tgSmall, _ := BuildTG(Window{Store: s, From: 0, To: 2})
	sched, err := NewSchedule(tgSmall, SteinerGreedy(tgSmall))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WorkSharingParallel(rep, tgSmall, sched, Config{Algo: algo.BFS{}, Source: 0}); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

// TestEvaluateMany: queries with different algorithms and sources run
// concurrently with WorkSharing over one shared representation and
// schedule, and each matches the reference on every snapshot.
func TestEvaluateMany(t *testing.T) {
	s, n := randomStore(233, 6, 40, 40)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 6})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Config{
		{Algo: algo.BFS{}, Source: 0, KeepValues: true},
		{Algo: algo.SSSP{}, Source: 5, KeepValues: true},
		{Algo: algo.SSWP{}, Source: 9, KeepValues: true},
	}
	tg, sched, _, err := rep.Schedule(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q Config) {
			defer wg.Done()
			results[i], errs[i] = WorkSharing(rep, tg, sched, q)
		}(i, q)
	}
	wg.Wait()
	for qi, q := range queries {
		if errs[qi] != nil {
			t.Fatalf("query %d: %v", qi, errs[qi])
		}
		for k := 0; k <= 6; k++ {
			snap, _ := s.GetVersion(k)
			ref := engine.Reference(graph.NewPair(n, snap), q.Algo, q.Source)
			for v := 0; v < n; v++ {
				if results[qi].Snapshots[k].Values[v] != ref[v] {
					t.Fatalf("query %d (%s from %d): snapshot %d vertex %d differs",
						qi, q.Algo.Name(), q.Source, k, v)
				}
			}
		}
	}
}

// TestExactScheduleStreamsNoMoreThanGreedy: the schedule a rep hands out
// (the exact one) streams no more additions than the paper's greedy tree
// over the same grid, and both reach the same snapshot values.
func TestExactScheduleStreamsNoMoreThanGreedy(t *testing.T) {
	s, _ := randomStore(241, 10, 40, 40)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algo: algo.SSSP{}, Source: 0}
	exact, eSched, err := EvaluateWorkSharing(rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTG(rep.Window)
	if err != nil {
		t.Fatal(err)
	}
	gSched, err := NewSchedule(tg, SteinerGreedy(tg))
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := WorkSharing(rep, tg, gSched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eSched.Cost > gSched.Cost {
		t.Fatalf("exact schedule cost %d exceeds greedy %d", eSched.Cost, gSched.Cost)
	}
	if exact.AdditionsProcessed > greedy.AdditionsProcessed {
		t.Fatalf("exact streamed more: %d vs %d", exact.AdditionsProcessed, greedy.AdditionsProcessed)
	}
	for k := range greedy.Snapshots {
		if greedy.Snapshots[k].Checksum != exact.Snapshots[k].Checksum {
			t.Fatalf("schedules disagree at snapshot %d", k)
		}
	}
}

// TestRepScheduleMemo: the schedule memoized on a rep is built once, and
// executing it — cold, then warm — gives what a TG and schedule built by
// hand over the same window give.
func TestRepScheduleMemo(t *testing.T) {
	s, _ := randomStore(229, 9, 60, 60)
	w := Window{Store: s, From: 1, To: 9}
	rep, err := BuildRep(w)
	if err != nil {
		t.Fatal(err)
	}
	tg, sched, built, err := rep.Schedule(context.Background())
	if err != nil || !built {
		t.Fatalf("first call: built=%v err=%v", built, err)
	}
	if tg2, sched2, built, _ := rep.Schedule(context.Background()); built || tg2 != tg || sched2 != sched {
		t.Fatal("second call built the schedule again")
	}

	handTG, err := BuildTG(w)
	if err != nil {
		t.Fatal(err)
	}
	handSched, err := NewSchedule(handTG, SteinerIntervalDP(handTG))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildRep(w)
	if err != nil {
		t.Fatal(err)
	}

	// A waiter on someone else's build leaves when its own context ends.
	fresh.sched = &schedFlight{done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := fresh.Schedule(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err=%v", err)
	}
	fresh.sched = nil

	// A materialisation that panics is not published: the next call
	// starts over and the schedule executes in full.
	handSched.tg = nil
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("executable on a schedule without its grid did not panic")
			}
		}()
		handSched.executable()
	}()
	if handSched.ready {
		t.Fatal("a panicked materialisation was published")
	}
	handSched.tg = handTG

	cfg := Config{Algo: algo.SSSP{}, Source: 0, KeepValues: true}
	want, err := WorkSharing(fresh, handTG, handSched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		for name, exec := range map[string]func(*Rep, *TG, *Schedule, Config) (*Result, error){
			"sequential": WorkSharing, "parallel": WorkSharingParallel,
		} {
			got, err := exec(rep, tg, sched, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.AdditionsProcessed != want.AdditionsProcessed || !reflect.DeepEqual(got.Snapshots, want.Snapshots) {
				t.Fatalf("run %d, %s: the memoized plan's result differs from the hand-built one's", run, name)
			}
		}
	}
}
