package commongraph

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"commongraph/internal/faults"
)

// TestCancelledContextRejectedEverywhere pins the uniform cancellation
// contract: an already-cancelled context stops every entry point — all
// six strategies, RunMulti, and Watcher.Run — with an error that unwraps
// to context.Canceled.
func TestCancelledContextRejectedEverywhere(t *testing.T) {
	g, _ := buildEvolving(t, 337, 5, 30, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{Algorithm: SSSP, Source: 0}

	for _, st := range []Strategy{
		KickStarter, Independent, DirectHop, DirectHopParallel, WorkSharing, WorkSharingParallel,
	} {
		if _, err := g.Run(ctx, Request{Query: q, Window: Window{From: 0, To: 5}, Strategy: st}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: cancelled context not observed: %v", st, err)
		}
	}
	if _, err := g.RunMulti(ctx, []Query{q}, Window{From: 0, To: 5}, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMulti: cancelled context not observed: %v", err)
	}
	w, err := g.Watch(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx, Request{Query: q, Strategy: WorkSharing}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Watcher.Run: cancelled context not observed: %v", err)
	}
}

// TestUnsupportedStrategyNamesItself pins the error-message satellite:
// rejections print the strategy's name, not a bare integer.
func TestUnsupportedStrategyNamesItself(t *testing.T) {
	g, _ := buildEvolving(t, 339, 3, 20, 20)
	q := Query{Algorithm: BFS, Source: 0}
	_, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 3}, Strategy: Strategy(99)})
	if err == nil || !strings.Contains(err.Error(), "Strategy(99)") {
		t.Fatalf("unknown strategy error does not name it: %v", err)
	}
	w, werr := g.Watch(0, 3)
	if werr != nil {
		t.Fatal(werr)
	}
	_, err = w.Run(context.Background(), Request{Query: q, Strategy: KickStarter})
	if err == nil || !strings.Contains(err.Error(), "KickStarter") {
		t.Fatalf("watcher rejection does not name the strategy: %v", err)
	}
}

// TestEvaluateDegradeAcrossAPI drives the public Options.Degrade path for
// both concurrent strategies, on the graph and on a Watcher whose window
// does not start at snapshot 0: a panic injected into one unit (a
// schedule subtree, a hop) must yield a successful, exact,
// Degraded-marked result with absolute snapshot indices in its failure
// causes, under a root span that says so.
func TestEvaluateDegradeAcrossAPI(t *testing.T) {
	g, _ := buildEvolving(t, 341, 8, 35, 35)
	q := Query{Algorithm: SSSP, Source: 0}
	w, err := g.Watch(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, tc := range []struct {
		name     string
		from     int
		origin   string
		strategy Strategy
		run      func(context.Context, Request) (*Result, error)
	}{
		{"EvolvingGraph", 0, "", WorkSharingParallel, g.Run},
		{"Watcher", 2, "watcher", WorkSharingParallel, w.Run},
		{"EvolvingGraph-DirectHopParallel", 0, "", DirectHopParallel, g.Run},
		{"Watcher-DirectHopParallel", 2, "watcher", DirectHopParallel, w.Run},
	} {
		t.Run(tc.name, func(t *testing.T) {
			win := Window{From: tc.from, To: 8}
			clean, err := g.Run(context.Background(), Request{Query: q, Window: win, Strategy: WorkSharing, Options: Options{KeepValues: true}})
			if err != nil {
				t.Fatal(err)
			}

			defer faults.Arm(&faults.Plan{Specs: []faults.Spec{
				{Point: faults.CoreSubtreeWalk, Mode: faults.Panic, After: 1, Times: 1},
			}})()
			tr := NewTracer()
			res, err := tc.run(context.Background(), Request{Query: q, Window: win, Strategy: tc.strategy,
				Options: Options{Degrade: true, KeepValues: true, Trace: tr}})
			if err != nil {
				t.Fatalf("degrade did not absorb the failed unit: %v", err)
			}
			if !res.Degraded {
				t.Fatal("result not marked Degraded")
			}
			if len(res.SnapshotErrors) == 0 {
				t.Fatal("degraded result carries no failure causes")
			}
			for idx, cause := range res.SnapshotErrors {
				if idx < tc.from || idx > 8 {
					t.Fatalf("failure cause at out-of-window snapshot %d", idx)
				}
				if cause == nil {
					t.Fatalf("snapshot %d has a nil failure cause", idx)
				}
			}
			for k := range clean.Snapshots {
				if clean.Snapshots[k].Checksum != res.Snapshots[k].Checksum {
					t.Fatalf("degraded snapshot %d differs from clean evaluation", k)
				}
			}
			for _, ev := range tr.Events() {
				if ev.Name != "evaluate" {
					continue
				}
				if ev.Attr("degraded") != "true" || ev.Attr("origin") != tc.origin {
					t.Fatalf("root span: degraded=%q origin=%q, want true and %q", ev.Attr("degraded"), ev.Attr("origin"), tc.origin)
				}
				return
			}
			t.Fatal("no root evaluate span recorded")
		})
	}
}

// TestWatcherRetriesTransientMaintenance pins the bounded-retry contract:
// transient store faults are retried per the policy and succeed once the
// fault stops firing; exhausted retries surface the final cause.
func TestWatcherRetriesTransientMaintenance(t *testing.T) {
	g, _ := buildEvolving(t, 343, 8, 25, 25)
	w, err := g.Watch(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.SetRetry(RetryPolicy{Attempts: 3})

	disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{
		{Point: faults.CoreMaintainAppend, Transient: true, Times: 2},
	}})
	err = w.Append()
	disarm()
	if err != nil {
		t.Fatalf("transient fault not retried to success: %v", err)
	}
	if _, to := w.Window(); to != 3 {
		t.Fatalf("retried append did not extend the window: to=%d", to)
	}

	// Non-transient faults are not retried at all.
	disarm = faults.Arm(&faults.Plan{Specs: []faults.Spec{
		{Point: faults.CoreMaintainAppend, Times: 1},
	}})
	err = w.Append()
	disarm()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("non-transient fault lost: %v", err)
	}
	if err := w.Append(); err != nil {
		t.Fatalf("second append should succeed (fault fired once, not retried): %v", err)
	}

	// A persistent transient fault exhausts the budget and says so.
	disarm = faults.Arm(&faults.Plan{Specs: []faults.Spec{
		{Point: faults.CoreMaintainAppend, Transient: true},
	}})
	err = w.Append()
	disarm()
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("exhausted retries not reported: %v", err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("exhausted retry hides the cause: %v", err)
	}
}

// TestWatcherConcurrentMaintenanceAndEvaluate races window maintenance
// (Append/Slide under the write lock) against evaluations (read lock +
// immutable representation snapshot) — the Watcher's concurrency
// contract, meaningful under `go test -race`. Every evaluation must match
// a fresh evaluation of whatever window it actually saw.
func TestWatcherConcurrentMaintenanceAndEvaluate(t *testing.T) {
	const transitions = 12
	g, _ := buildEvolving(t, 347, transitions, 25, 25)
	w, err := g.Watch(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Algorithm: BFS, Source: 0}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	done := make(chan struct{})

	// Maintainer: grow to half the history, then slide to its end.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 3; i++ {
			if err := w.Append(); err != nil {
				errc <- fmt.Errorf("append %d: %w", i, err)
				return
			}
		}
		for {
			runtime.Gosched() // let evaluations interleave with the slides
			if err := w.Slide(); err != nil {
				return // slid off the end of the history: expected
			}
			if _, to := w.Window(); to >= transitions {
				return
			}
		}
	}()

	// Evaluators: race reads against the maintenance above. The loop is
	// iteration-bounded and yields each pass: an unbounded hot loop can
	// monopolize a single-CPU scheduler (the engine's worker handoff keeps
	// winning the runnext slot) and starve the maintainer forever.
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				select {
				case <-done:
					return
				default:
				}
				runtime.Gosched()
				res, err := w.Run(context.Background(), Request{Query: q, Strategy: DirectHop})
				if err != nil {
					errc <- fmt.Errorf("evaluate: %w", err)
					return
				}
				from := res.Snapshots[0].Index
				to := res.Snapshots[len(res.Snapshots)-1].Index
				fresh, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: from, To: to}, Strategy: DirectHop})
				if err != nil {
					errc <- fmt.Errorf("fresh [%d,%d]: %w", from, to, err)
					return
				}
				for k := range res.Snapshots {
					if res.Snapshots[k].Checksum != fresh.Snapshots[k].Checksum {
						errc <- fmt.Errorf("window [%d,%d] snapshot %d differs from fresh evaluation", from, to, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
