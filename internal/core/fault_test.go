package core

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/faults"
	"commongraph/internal/graph"
)

// faultFixture builds a shared window plus the clean sequential baseline
// every fault test compares against.
type faultFixture struct {
	rep   *Rep
	tg    *TG
	sched *Schedule
	cfg   Config
	clean *Result
	n     int
}

func newFaultFixture(t *testing.T, seed uint64, transitions int) *faultFixture {
	t.Helper()
	s, n := randomStore(seed, transitions, 50, 50)
	rep, err := BuildRep(Window{Store: s, From: 0, To: transitions})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTG(rep.Window)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSchedule(tg, SteinerGreedy(tg))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algo: algo.SSSP{}, Source: 0, KeepValues: true}
	clean, err := WorkSharing(rep, tg, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &faultFixture{rep: rep, tg: tg, sched: sched, cfg: cfg, clean: clean, n: n}
}

// strategies runs each CommonGraph strategy over the fixture's window.
func (f *faultFixture) strategies() map[string]func(Config) (*Result, error) {
	return map[string]func(Config) (*Result, error){
		"DirectHop":           func(c Config) (*Result, error) { return DirectHop(f.rep, c) },
		"DirectHopParallel":   func(c Config) (*Result, error) { return DirectHopParallel(f.rep, c) },
		"WorkSharing":         func(c Config) (*Result, error) { return WorkSharing(f.rep, f.tg, f.sched, c) },
		"WorkSharingParallel": func(c Config) (*Result, error) { return WorkSharingParallel(f.rep, f.tg, f.sched, c) },
	}
}

// concurrent names the strategies Config.Degrade applies to.
var concurrent = []string{"WorkSharingParallel", "DirectHopParallel"}

func (f *faultFixture) assertMatchesClean(t *testing.T, got *Result) {
	t.Helper()
	if len(got.Snapshots) != len(f.clean.Snapshots) {
		t.Fatalf("snapshot count %d vs %d", len(got.Snapshots), len(f.clean.Snapshots))
	}
	for k := range f.clean.Snapshots {
		if f.clean.Snapshots[k].Checksum != got.Snapshots[k].Checksum {
			t.Fatalf("snapshot %d checksum differs", k)
		}
		for v := 0; v < f.n; v++ {
			if f.clean.Snapshots[k].Values[v] != got.Snapshots[k].Values[v] {
				t.Fatalf("snapshot %d vertex %d differs", k, v)
			}
		}
	}
}

// assertInjected checks the error both wraps the sentinel and names its
// injection point — the "no silent nils, no anonymous failures" half of
// the fault-injection contract.
func assertInjected(t *testing.T, err error, p faults.Point) {
	t.Helper()
	if err == nil {
		t.Fatalf("armed point %s produced no error", p)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error from %s does not wrap faults.ErrInjected: %v", p, err)
	}
	if !strings.Contains(err.Error(), string(p)) {
		t.Fatalf("error from %s does not identify its point: %v", p, err)
	}
}

// TestFaultMatrix arms every evaluation-path injection point in turn and
// asserts the driven operation surfaces a wrapped, point-identifying
// error with no partial effect. (The ingest.window-close point is covered
// in internal/ingest, which owns that path.)
func TestFaultMatrix(t *testing.T) {
	f := newFaultFixture(t, 401, 8)

	t.Run(string(faults.CoreEngineRun), func(t *testing.T) {
		defer faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.CoreEngineRun}}})()
		for name, run := range f.strategies() {
			res, err := run(f.cfg)
			assertInjected(t, err, faults.CoreEngineRun)
			if res != nil {
				t.Fatalf("%s returned a partial result alongside the error", name)
			}
		}
	})

	t.Run(string(faults.CoreSubtreeWalk), func(t *testing.T) {
		defer faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.CoreSubtreeWalk}}})()
		for name, run := range f.strategies() {
			res, err := run(f.cfg)
			assertInjected(t, err, faults.CoreSubtreeWalk)
			if res != nil {
				t.Fatalf("%s returned a partial result alongside the error", name)
			}
		}
	})

	t.Run(string(faults.StoreNewVersion), func(t *testing.T) {
		s, _ := randomStore(403, 2, 20, 20)
		before := s.NumVersions()
		defer faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.StoreNewVersion}}})()
		_, err := s.NewVersion(graph.EdgeList{}, graph.EdgeList{})
		assertInjected(t, err, faults.StoreNewVersion)
		if s.NumVersions() != before {
			t.Fatalf("failed NewVersion changed version count %d -> %d", before, s.NumVersions())
		}
	})

	t.Run(string(faults.CoreMaintainAppend), func(t *testing.T) {
		s, _ := randomStore(405, 5, 30, 30)
		m, err := NewMaintainedRep(Window{Store: s, From: 0, To: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.CoreMaintainAppend}}})()
		assertInjected(t, m.Append(), faults.CoreMaintainAppend)
		if w := m.Window(); w.From != 0 || w.To != 2 {
			t.Fatalf("failed Append moved the window to [%d,%d]", w.From, w.To)
		}
	})

	t.Run(string(faults.CoreMaintainAdvance), func(t *testing.T) {
		s, _ := randomStore(407, 5, 30, 30)
		m, err := NewMaintainedRep(Window{Store: s, From: 0, To: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.CoreMaintainAdvance}}})()
		assertInjected(t, m.Advance(), faults.CoreMaintainAdvance)
		if w := m.Window(); w.From != 0 || w.To != 2 {
			t.Fatalf("failed Advance moved the window to [%d,%d]", w.From, w.To)
		}
	})
}

// TestSlideRollsBackOnMidMaintenanceError pins Slide's atomicity: when the
// Advance half fails after a successful Append, the window must return to
// its pre-Slide state and stay exactly evaluable (equal to a fresh
// BuildRep of the original window).
func TestSlideRollsBackOnMidMaintenanceError(t *testing.T) {
	s, _ := randomStore(409, 6, 30, 30)
	m, err := NewMaintainedRep(Window{Store: s, From: 0, To: 3})
	if err != nil {
		t.Fatal(err)
	}
	disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.CoreMaintainAdvance}}})
	err = m.Slide()
	disarm()
	assertInjected(t, err, faults.CoreMaintainAdvance)
	if w := m.Window(); w.From != 0 || w.To != 3 {
		t.Fatalf("failed Slide left a half-moved window [%d,%d]", w.From, w.To)
	}
	fresh, err := BuildRep(Window{Store: s, From: 0, To: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(m.Rep().Base.Out.Edges(), fresh.Common) {
		t.Fatal("rolled-back representation's common graph differs from a fresh build")
	}
	for k := range fresh.Deltas {
		if !graph.Equal(m.Rep().Deltas[k].Edges(), fresh.Deltas[k].Edges()) {
			t.Fatalf("rolled-back delta %d differs from a fresh build", k)
		}
	}
	// The rolled-back window must still slide cleanly once disarmed.
	if err := m.Slide(); err != nil {
		t.Fatalf("slide after rollback: %v", err)
	}
	if w := m.Window(); w.From != 1 || w.To != 4 {
		t.Fatalf("post-rollback slide moved to [%d,%d]", w.From, w.To)
	}
}

// TestWorkSharingParallelPanicContained is the acceptance test for panic
// isolation: on every CommonGraph strategy an armed panic at a schedule
// boundary must come back as an error (a *PanicError carrying the stack)
// instead of crashing the process.
func TestWorkSharingParallelPanicContained(t *testing.T) {
	f := newFaultFixture(t, 411, 9)
	for name, run := range f.strategies() {
		t.Run(name, func(t *testing.T) {
			defer faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.CoreSubtreeWalk, Mode: faults.Panic}}})()
			res, err := run(f.cfg)
			if err == nil {
				t.Fatal("armed panic produced no error")
			}
			if res != nil {
				t.Fatal("armed panic produced a partial result")
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("error is not a *PanicError: %v", err)
			}
			if _, ok := pe.Value.(*faults.InjectedPanic); !ok {
				t.Fatalf("recovered value %T is not the injected panic", pe.Value)
			}
			if !strings.Contains(err.Error(), "goroutine") {
				t.Fatal("panic error carries no stack trace")
			}
		})
	}
}

// TestWorkSharingParallelDegrade is the acceptance test for graceful
// degradation: with Config.Degrade set, a panicking unit of either
// concurrent strategy is recomputed along the star and the evaluation
// succeeds with exact values, a Degraded mark, and per-snapshot failure
// causes.
func TestWorkSharingParallelDegrade(t *testing.T) {
	f := newFaultFixture(t, 413, 10)
	cfg := f.cfg
	cfg.Degrade = true
	for _, name := range concurrent {
		t.Run(name, func(t *testing.T) {
			// Fire exactly once, past the first walk, so exactly one unit
			// fails while the rest run normally.
			defer faults.Arm(&faults.Plan{Specs: []faults.Spec{
				{Point: faults.CoreSubtreeWalk, Mode: faults.Panic, After: 1, Times: 1},
			}})()
			res, err := f.strategies()[name](cfg)
			if err != nil {
				t.Fatalf("degrade did not absorb the failed unit: %v", err)
			}
			if !res.Degraded {
				t.Fatal("result not marked Degraded")
			}
			if len(res.SnapshotErrors) == 0 {
				t.Fatal("degraded result carries no per-snapshot failure causes")
			}
			for k, cause := range res.SnapshotErrors {
				if cause == nil {
					t.Fatalf("snapshot %d has a nil failure cause", k)
				}
				var pe *PanicError
				if !errors.As(cause, &pe) {
					t.Fatalf("snapshot %d cause is not the contained panic: %v", k, cause)
				}
			}
			// Degraded values are exact: the whole window matches the clean
			// sequential evaluation.
			f.assertMatchesClean(t, res)
		})
	}
}

// TestWorkSharingParallelErrorDegrade covers the error-mode flavour: an
// erroring (non-panicking) subtree degrades the same way.
func TestWorkSharingParallelErrorDegrade(t *testing.T) {
	f := newFaultFixture(t, 415, 9)
	cfg := f.cfg
	cfg.Degrade = true
	defer faults.Arm(&faults.Plan{Specs: []faults.Spec{
		{Point: faults.CoreSubtreeWalk, After: 2, Times: 1},
	}})()
	res, err := WorkSharingParallel(f.rep, f.tg, f.sched, cfg)
	if err != nil {
		t.Fatalf("degrade did not absorb the failed subtree: %v", err)
	}
	if !res.Degraded || len(res.SnapshotErrors) == 0 {
		t.Fatal("result not marked degraded with causes")
	}
	for _, cause := range res.SnapshotErrors {
		if !errors.Is(cause, faults.ErrInjected) {
			t.Fatalf("cause does not wrap the injected fault: %v", cause)
		}
	}
	f.assertMatchesClean(t, res)
}

// TestCancellationStopsWithinOneScheduleEdge is the acceptance test for
// cooperative cancellation: cancelling mid-walk must stop the sequential
// DFS at the next schedule-edge boundary — no further edges are streamed
// after the cancellation is observed.
func TestCancellationStopsWithinOneScheduleEdge(t *testing.T) {
	f := newFaultFixture(t, 417, 10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var walks atomic.Int64
	const cancelAt = 3
	disarm := faults.Arm(&faults.Plan{Observer: func(p faults.Point, hit int) {
		if p != faults.CoreSubtreeWalk {
			return
		}
		walks.Add(1)
		if hit == cancelAt {
			cancel()
		}
	}})
	defer disarm()

	cfg := f.cfg
	cfg.Ctx = ctx
	res, err := WorkSharing(f.rep, f.tg, f.sched, cfg)
	if res != nil || err == nil {
		t.Fatalf("cancelled evaluation returned res=%v err=%v", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
	// The checkpoint that observes the cancellation does not count as a
	// walk (ctx is checked before the fault registry), so the DFS streams
	// no edge beyond the one that was in flight when cancel fired.
	if got := walks.Load(); got > cancelAt+1 {
		t.Fatalf("DFS streamed %d edges after cancelling at edge %d", got-cancelAt, cancelAt)
	}
	if total := countScheduleEdges(f.sched.Root); total <= cancelAt+1 {
		t.Fatalf("fixture too narrow to prove early stop: %d schedule edges", total)
	}
}

func countScheduleEdges(n *ScheduleNode) int {
	total := 0
	for _, e := range n.Edges {
		total += 1 + countScheduleEdges(e.To)
	}
	return total
}

// TestCancellationParallelPaths covers the remaining executors: a
// pre-cancelled context must stop each of them before any work.
func TestCancellationParallelPaths(t *testing.T) {
	f := newFaultFixture(t, 419, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := f.cfg
	cfg.Ctx = ctx
	if _, err := DirectHop(f.rep, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("DirectHop: %v", err)
	}
	if _, err := DirectHopParallel(f.rep, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("DirectHopParallel: %v", err)
	}
	if _, err := WorkSharingParallel(f.rep, f.tg, f.sched, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("WorkSharingParallel: %v", err)
	}
	if _, err := Independent(f.rep.Window, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Independent: %v", err)
	}
	// Degrade must never mask cancellation as a degraded success.
	cfg.Degrade = true
	for _, name := range concurrent {
		if _, err := f.strategies()[name](cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s degrade: %v", name, err)
		}
	}
}

// TestChaosWorkSharingParallel is the probabilistic suite behind `make
// chaos`: seeded random faults (errors and panics, sometimes mid-walk)
// against both concurrent executors, degrading or not. Every outcome must
// be one of (a) a clean result matching the sequential baseline, (b) a
// degraded result matching the baseline with causes attached, or (c) an
// error that wraps the injected sentinel — never a crash, never silently
// wrong values. Deterministic per seed; a failure names the seed to replay.
func TestChaosWorkSharingParallel(t *testing.T) {
	if os.Getenv("COMMONGRAPH_CHAOS") == "" {
		t.Skip("probabilistic fault suite; run via `make chaos` (COMMONGRAPH_CHAOS=1)")
	}
	f := newFaultFixture(t, 421, 10)
	for _, name := range concurrent {
		for seed := uint64(1); seed <= 16; seed++ {
			cfg := f.cfg
			cfg.Degrade = seed%2 == 0
			disarm := faults.Arm(&faults.Plan{Seed: seed, Specs: []faults.Spec{
				{Point: faults.CoreSubtreeWalk, Prob: 0.10},
				{Point: faults.CoreSubtreeWalk, Prob: 0.05, Mode: faults.Panic},
			}})
			res, err := f.strategies()[name](cfg)
			disarm()
			switch {
			case err != nil:
				var pe *PanicError
				if !errors.Is(err, faults.ErrInjected) && !errors.As(err, &pe) {
					t.Fatalf("%s seed %d: error is neither injected nor a contained panic: %v", name, seed, err)
				}
			case res.Degraded:
				if len(res.SnapshotErrors) == 0 {
					t.Fatalf("%s seed %d: degraded result without causes", name, seed)
				}
				f.assertMatchesClean(t, res)
			default:
				f.assertMatchesClean(t, res)
			}
		}
	}
}
