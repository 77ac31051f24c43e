package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"commongraph/internal/engine"
	"commongraph/internal/faults"
	"commongraph/internal/obs"
	"commongraph/internal/shard"
)

// WorkSharingParallel executes a schedule with the root's child subtrees
// running concurrently — the parallelization §5 notes is possible for the
// work-sharing algorithm ("resulting in a more work efficient algorithm"
// than parallel direct hop). Subtrees are independent: each starts from
// its own clone of the common graph's solution, so no synchronization is
// needed beyond joining.
//
// Fault tolerance: every subtree runs panic-contained — a panic becomes a
// *PanicError instead of crashing the process — and cancellation is
// observed at each schedule-edge boundary. When Config.Degrade is set, a
// failed subtree falls back to Direct-Hop recomputation of its snapshots
// from the base state and the Result is marked Degraded with the
// per-snapshot failure cause; otherwise the first failure aborts the
// whole evaluation.
//
// Result.MaxHopTime reports the longest subtree (the wall-time estimate
// with one core per subtree); the Cost fields aggregate CPU time across
// subtrees.
func WorkSharingParallel(rep *Rep, tg *TG, sched *Schedule, cfg Config) (*Result, error) {
	if err := checkWidths(rep, tg); err != nil {
		return nil, err
	}
	if err := checkpoint(cfg.Ctx, faults.CoreEngineRun); err != nil {
		return nil, err
	}
	cfg.Engine = rep.pinShardPlan(cfg.Engine)
	res := &Result{}
	t0 := time.Now()
	baseState, stats := solveCommon(rep.Base, cfg)
	res.Cost.InitialCompute = time.Since(t0)
	res.Work.Add(stats)
	hops := obs.HopSeconds("work-sharing-parallel")
	busy := obs.WorkersBusy()
	ctx := executorCtx(cfg)

	if sched.Root.IsLeaf() {
		res.Snapshots = append(res.Snapshots, snapshotResult(0, baseState, cfg.KeepValues))
		return res, nil
	}
	tL := time.Now()
	sched.executable()
	res.Cost.OverlayBuild = time.Since(tL)

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	par := cfg.Parallelism
	if par <= 0 || par > len(sched.Root.Edges) {
		par = len(sched.Root.Edges)
	}
	sem := make(chan struct{}, par)
	res.Snapshots = make([]SnapshotResult, rep.Window.Width())
	for _, rootEdge := range sched.Root.Edges {
		wg.Add(1)
		go func(e *ScheduleEdge) {
			defer wg.Done()
			// Last-resort containment: a panic escaping the protected walk
			// below (e.g. in the merge itself) is recorded as the
			// evaluation's error, never allowed to kill the process.
			defer func() {
				if r := recover(); r != nil {
					pe := &PanicError{Value: r, Stack: debug.Stack()}
					mu.Lock()
					if firstErr == nil {
						firstErr = pe
					}
					mu.Unlock()
				}
			}()
			sem <- struct{}{}
			defer func() { <-sem }()
			busy.Add(1)
			defer busy.Add(-1)
			// Short-circuit: once any subtree has failed fatally the whole
			// evaluation is doomed, so skip the full walk (and the state
			// clone it implies) instead of computing a result that would
			// be discarded.
			mu.Lock()
			aborted := firstErr != nil
			mu.Unlock()
			if aborted {
				return
			}
			start := time.Now()
			sub := &Result{}
			var walkErr error
			pprof.Do(ctx, pprof.Labels("cg_executor", "work-sharing-parallel"), func(context.Context) {
				walkErr = runSubtree(rep, e, baseState.Clone(), cfg, sub)
			})
			degraded := false
			if walkErr != nil && cfg.Degrade && !isCancellation(walkErr) {
				// Graceful degradation: recompute this subtree's snapshots
				// via Direct-Hop from the base state. The fallback shares
				// nothing with the failed walk; if it fails too, the whole
				// evaluation fails with both causes.
				sub = &Result{}
				if degErr := degradeSubtree(rep, e, baseState, cfg, sub); degErr != nil {
					walkErr = errors.Join(walkErr, degErr)
				} else {
					degraded = true
					obs.Degradations().Inc()
					cfg.Trace.Tracer().Event("degrade", obs.String("subtree", nodeRef(e.To)))
				}
			}
			elapsed := time.Since(start)
			hops.Observe(elapsed)
			mu.Lock()
			defer mu.Unlock()
			if walkErr != nil && !degraded {
				if firstErr == nil {
					firstErr = walkErr
				}
				return
			}
			if firstErr != nil {
				// Another subtree failed fatally while we were walking; do
				// not merge partial results into an evaluation that will
				// return an error.
				return
			}
			if degraded {
				res.Degraded = true
				if res.SnapshotErrors == nil {
					res.SnapshotErrors = make(map[int]error)
				}
				for _, s := range sub.Snapshots {
					res.SnapshotErrors[s.Index] = walkErr
				}
			}
			res.Cost.IncrementalAdd += sub.Cost.IncrementalAdd
			res.Cost.OverlayBuild += sub.Cost.OverlayBuild
			res.Cost.StateClone += sub.Cost.StateClone
			res.Work.Add(sub.Work)
			res.AdditionsProcessed += sub.AdditionsProcessed
			if elapsed > res.MaxHopTime {
				res.MaxHopTime = elapsed
			}
			for _, s := range sub.Snapshots {
				res.Snapshots[s.Index] = s
			}
		}(rootEdge)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

func checkWidths(rep *Rep, tg *TG) error {
	if tg.W != rep.Window.Width() {
		return errWidth(tg.W, rep.Window.Width())
	}
	return nil
}

// runSubtree is one root subtree's protected walk: a panic anywhere below
// (the engine, the overlay algebra, or an armed Panic-mode fault) comes
// back as a *PanicError the caller can degrade around. The subtree's
// spans render on their own trace track (Fork), showing real overlap with
// sibling subtrees.
func runSubtree(rep *Rep, e *ScheduleEdge, st *engine.State, cfg Config, sub *Result) (err error) {
	defer recoverToError(&err)
	sp := cfg.Trace.Fork("subtree", obs.String("root", nodeRef(e.To)))
	defer sp.End()
	return walkSubtree(rep, e, st, cfg, sp, sub)
}

// walkSubtree executes one schedule edge and the subtree below it,
// accumulating into sub. It mirrors WorkSharing's DFS but is reentrant so
// subtrees can run concurrently. Every invocation is a schedule-edge
// boundary: cancellation and armed faults are observed before the edge's
// batch is streamed.
func walkSubtree(rep *Rep, e *ScheduleEdge, st *engine.State, cfg Config, parent *obs.Span, sub *Result) error {
	if err := checkpoint(cfg.Ctx, faults.CoreSubtreeWalk); err != nil {
		return err
	}
	sp := parent.StartChild("schedule.edge",
		obs.String("to", nodeRef(e.To)), obs.Int("spans", len(e.Spans)))
	t1 := time.Now()
	og := edgeGraph(rep, e)
	t2 := time.Now()
	sub.Cost.OverlayBuild += t2.Sub(t1)

	s := shard.IncrementalAddParts(og, st, e.parts, cfg.Engine.WithSpan(sp))
	sub.Cost.IncrementalAdd += time.Since(t2)
	sp.SetAttr(obs.Int64("batch", e.AddCount))
	sp.End()
	sub.Work.Add(s)
	sub.AdditionsProcessed += e.AddCount

	if e.To.IsLeaf() {
		sub.Snapshots = append(sub.Snapshots, snapshotResult(e.To.I, st, cfg.KeepValues))
		return nil
	}
	for idx, child := range e.To.Edges {
		next := st
		if idx < len(e.To.Edges)-1 {
			tc := time.Now()
			next = st.Clone()
			sub.Cost.StateClone += time.Since(tc)
		}
		if err := walkSubtree(rep, child, next, cfg, parent, sub); err != nil {
			return err
		}
	}
	return nil
}

// degradeSubtree recomputes every snapshot below a failed schedule edge
// via Direct-Hop from the base state (§3.1): the per-leaf batches are
// already materialized canonically in the representation, so the fallback
// shares nothing with the failed walk. It is itself panic-contained and
// cancellable, and its snapshot values are exact — degradation loses only
// the work sharing, never correctness.
func degradeSubtree(rep *Rep, e *ScheduleEdge, base *engine.State, cfg Config, sub *Result) (err error) {
	defer recoverToError(&err)
	parent := cfg.Trace.Fork("subtree.degrade", obs.String("root", nodeRef(e.To)))
	defer parent.End()
	for _, k := range subtreeLeaves(e) {
		if cerr := checkpoint(cfg.Ctx, faults.CoreOverlayBuild); cerr != nil {
			return cerr
		}
		sp := parent.StartChild("hop.fallback",
			obs.Int("snapshot", k), obs.Int("batch", rep.Deltas[k].Len()))
		t1 := time.Now()
		og := rep.SnapshotGraph(k)
		t2 := time.Now()
		sub.Cost.OverlayBuild += t2.Sub(t1)

		st := base.Clone()
		t3 := time.Now()
		sub.Cost.StateClone += t3.Sub(t2)

		s := shard.IncrementalAdd(og, st, rep.Deltas[k].Edges(), cfg.Engine.WithSpan(sp))
		sub.Cost.IncrementalAdd += time.Since(t3)
		sp.End()
		sub.Work.Add(s)
		sub.AdditionsProcessed += int64(rep.Deltas[k].Len())
		sub.Snapshots = append(sub.Snapshots, snapshotResult(k, st, cfg.KeepValues))
	}
	return nil
}

// subtreeLeaves collects the window-relative snapshot indices at or below
// the destination of a schedule edge.
func subtreeLeaves(e *ScheduleEdge) []int {
	var out []int
	var walk func(n *ScheduleNode)
	walk = func(n *ScheduleNode) {
		if n.IsLeaf() {
			out = append(out, n.I)
			return
		}
		for _, ce := range n.Edges {
			walk(ce.To)
		}
	}
	walk(e.To)
	return out
}

// errWidth mirrors WorkSharing's width validation.
func errWidth(tgW, repW int) error {
	return fmt.Errorf("core: TG width %d does not match window width %d", tgW, repW)
}

// EvaluateWorkSharingParallel is the one-call parallel pipeline: the
// rep's TG and schedule, concurrent execution.
func EvaluateWorkSharingParallel(rep *Rep, cfg Config) (*Result, *Schedule, error) {
	tg, sched, _, err := rep.Schedule(cfg.Ctx, cfg.OptimalSchedule)
	if err != nil {
		return nil, nil, err
	}
	res, err := WorkSharingParallel(rep, tg, sched, cfg)
	return res, sched, err
}

// EvaluateMany evaluates several queries (different algorithms and/or
// sources) over the same window along one schedule (rep.Schedule's, or a
// hand-built one), sharing the representation, the Triangular Grid, its
// labels and overlays across all of them — the amortization a multi-query
// evolving-graph service gets from the CommonGraph form. Results are
// returned in query order.
func EvaluateMany(rep *Rep, tg *TG, sched *Schedule, queries []Config) ([]*Result, error) {
	out := make([]*Result, len(queries))
	for i, cfg := range queries {
		res, err := WorkSharing(rep, tg, sched, cfg)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}
