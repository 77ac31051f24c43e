package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/engine"
	"commongraph/internal/faults"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
	"commongraph/internal/shard"
)

// Config selects what to evaluate over a window and how.
type Config struct {
	Algo   algo.Algorithm
	Source graph.VertexID
	Engine engine.Options
	// KeepValues retains the full per-snapshot value arrays in the result
	// (tests and small runs); otherwise only counts and checksums are kept.
	KeepValues bool
	// Parallelism bounds concurrent hops in DirectHopParallel; 0 means
	// one goroutine per snapshot.
	Parallelism int
	// OptimalSchedule selects the interval-DP Steiner solver instead of
	// the paper's greedy (Algorithm 1). On wide windows the DP finds
	// schedules streaming several times fewer additions, at a solver cost
	// of O(w^5) — see the ablation-steiner experiment.
	OptimalSchedule bool
	// Ctx cancels the evaluation cooperatively: it is observed at every
	// schedule-edge boundary (each Direct-Hop, each Work-Sharing DFS
	// edge), so a deadline or client disconnect stops the work within one
	// edge. Nil means the evaluation is never cancelled.
	Ctx context.Context
	// Degrade lets WorkSharingParallel survive a failed (erroring or
	// panicking) schedule subtree: the subtree's snapshots are recomputed
	// via Direct-Hop from the base state and the Result is marked
	// Degraded, instead of the whole query failing.
	Degrade bool
	// Trace, when non-nil, is the query's root span: executors hang
	// schedule-level spans off it (common.solve, hop, schedule.edge,
	// subtree — the taxonomy DESIGN.md "Observability" documents) and the
	// engine nests its per-pass spans below those. Nil — the default —
	// disables tracing at one pointer test per span site; the hot
	// per-vertex loop is never instrumented either way.
	Trace *obs.Span
	// Common, when non-nil, is a pre-solved fixpoint state for the
	// window's common graph: solveCommon clones it instead of running the
	// from-scratch solve. The caller owns correctness — the state must be
	// the exact fixpoint of (Algo, Source) on the rep's base graph. The
	// cross-query PlanCache uses this to share one common-graph solve
	// among overlapping concurrent queries.
	Common *engine.State
}

// nodeRef renders a schedule node as "i,j" for span attributes. In a
// schedule tree every node has one incoming edge, so the destination ref
// alone identifies a schedule edge.
func nodeRef(n *ScheduleNode) string { return fmt.Sprintf("%d,%d", n.I, n.J) }

// solveCommon is the shared from-scratch solve on the common graph, under
// a "common.solve" span (with the engine's own pass span nested inside).
func solveCommon(g delta.Graph, cfg Config) (*engine.State, engine.Stats) {
	if cfg.Common != nil {
		sp := cfg.Trace.StartChild("common.reuse")
		st := cfg.Common.Clone()
		sp.End()
		return st, engine.Stats{}
	}
	sp := cfg.Trace.StartChild("common.solve")
	st, stats := shard.Run(g, cfg.Algo, cfg.Source, cfg.Engine.WithSpan(sp))
	sp.End()
	return st, stats
}

// executorCtx is the context pprof.Do labels executor goroutines with;
// labels propagate to everything the goroutine spawns, so CPU profiles of
// a busy service split by executor.
func executorCtx(cfg Config) context.Context {
	if cfg.Ctx != nil {
		return cfg.Ctx
	}
	return context.Background() //cgvet:ignore ctxflow -- nil Config.Ctx means "never cancelled"; pprof labelling still needs some context to hang off
}

// SnapshotResult is the query outcome at one snapshot of the window.
type SnapshotResult struct {
	Index    int // window-relative snapshot index
	Reached  int
	Checksum uint64
	Values   []algo.Value // nil unless Config.KeepValues
}

// Cost attributes an evaluation's wall time to phases, mirroring the
// KickStarter breakdown for Figure 11. OverlayBuild is the CommonGraph
// replacement for graph mutation; there are no deletion phases at all.
//
// OverlayBuild is the overlay and label construction paid by this call.
// Overlays and labels are memoized on the Rep and the Schedule, so it is
// the whole cost on their first evaluation and close to zero afterwards.
type Cost struct {
	InitialCompute time.Duration // from-scratch solve on the common graph
	IncrementalAdd time.Duration
	OverlayBuild   time.Duration
	StateClone     time.Duration
}

// Total sums every phase.
func (c Cost) Total() time.Duration {
	return c.InitialCompute + c.IncrementalAdd + c.OverlayBuild + c.StateClone
}

// Result is the outcome of evaluating a query over a whole window.
type Result struct {
	Snapshots []SnapshotResult
	Cost      Cost
	Work      engine.Stats
	// AdditionsProcessed counts batch edges streamed across all hops —
	// the schedule-cost metric of §3 (22 vs 19 in the worked example).
	AdditionsProcessed int64
	// MaxHopTime is the longest single independent unit of the strategy —
	// a per-snapshot hop for Direct-Hop (sequential and parallel) and
	// Independent, a root subtree for Work-Sharing (sequential and
	// parallel). It is the paper's Table 5 estimate of the runtime with
	// one core per unit. Zero only for KickStarter-style fully sequential
	// plans and single-snapshot windows.
	MaxHopTime time.Duration
	// Degraded marks that at least one schedule subtree failed and its
	// snapshots were recomputed via the Direct-Hop fallback
	// (Config.Degrade). Degraded snapshot values are still exact — the
	// fallback recomputes from the base state — only the work sharing was
	// lost.
	Degraded bool
	// SnapshotErrors records, per window-relative snapshot index, the
	// original subtree failure that forced that snapshot onto the
	// fallback path. Nil unless Degraded.
	SnapshotErrors map[int]error
}

// Checksum folds the state's values FNV-style so snapshot results can be
// compared across evaluation strategies without retaining full arrays.
func Checksum(st *engine.State) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i, n := 0, st.NumVertices(); i < n; i++ {
		h ^= uint64(uint32(st.Value(graph.VertexID(i))))
		h *= prime
	}
	return h
}

func snapshotResult(k int, st *engine.State, keep bool) SnapshotResult {
	r := SnapshotResult{Index: k, Reached: st.Reached(), Checksum: Checksum(st)}
	if keep {
		r.Values = st.Values()
	}
	return r
}

// DirectHop evaluates the query on every snapshot of the window via §3.1:
// solve the common graph once, then for each snapshot independently stream
// its Δ_ck addition batch and update incrementally. Sequential; see
// DirectHopParallel for the parallel variant.
func DirectHop(rep *Rep, cfg Config) (*Result, error) {
	if err := checkpoint(cfg.Ctx, faults.CoreEngineRun); err != nil {
		return nil, err
	}
	cfg.Engine = rep.pinShardPlan(cfg.Engine)
	res := &Result{}
	t0 := time.Now()
	baseState, stats := solveCommon(rep.Base, cfg)
	res.Cost.InitialCompute = time.Since(t0)
	res.Work.Add(stats)
	hops := obs.HopSeconds("direct-hop")

	for k := range rep.Deltas {
		// Hops are the schedule edges of the §3.1 plan: cancellation and
		// injected faults are observed once per hop.
		if err := checkpoint(cfg.Ctx, faults.CoreOverlayBuild); err != nil {
			return nil, err
		}
		sp := cfg.Trace.StartChild("hop",
			obs.Int("snapshot", k), obs.Int("batch", rep.Deltas[k].Len()))
		t1 := time.Now()
		og := rep.SnapshotGraph(k)
		t2 := time.Now()
		res.Cost.OverlayBuild += t2.Sub(t1)

		st := baseState.Clone()
		t3 := time.Now()
		res.Cost.StateClone += t3.Sub(t2)

		s := shard.IncrementalAdd(og, st, rep.Deltas[k].Edges(), cfg.Engine.WithSpan(sp))
		t4 := time.Now()
		res.Cost.IncrementalAdd += t4.Sub(t3)
		sp.End()
		// Hops are mutually independent, so the longest one estimates the
		// wall time with a core per snapshot (Table 5); measuring it here,
		// in the sequential loop, keeps hops from inflating each other on
		// small machines.
		hop := t4.Sub(t1)
		hops.Observe(hop)
		if hop > res.MaxHopTime {
			res.MaxHopTime = hop
		}
		res.Work.Add(s)
		res.AdditionsProcessed += int64(rep.Deltas[k].Len())
		res.Snapshots = append(res.Snapshots, snapshotResult(k, st, cfg.KeepValues))
	}
	return res, nil
}

// DirectHopParallel runs every hop of DirectHop concurrently (the paper's
// Table 5): hops are independent because each starts from the common
// graph's solution, the dependency streaming imposes having been broken.
// MaxHopTime in the result is the longest single hop.
func DirectHopParallel(rep *Rep, cfg Config) (*Result, error) {
	if err := checkpoint(cfg.Ctx, faults.CoreEngineRun); err != nil {
		return nil, err
	}
	cfg.Engine = rep.pinShardPlan(cfg.Engine)
	res := &Result{}
	t0 := time.Now()
	baseState, stats := solveCommon(rep.Base, cfg)
	res.Cost.InitialCompute = time.Since(t0)
	res.Work.Add(stats)
	hops := obs.HopSeconds("direct-hop-parallel")
	busy := obs.WorkersBusy()
	ctx := executorCtx(cfg)

	w := len(rep.Deltas)
	res.Snapshots = make([]SnapshotResult, w)
	durations := make([]time.Duration, w)
	errs := make([]error, w)
	par := cfg.Parallelism
	if par <= 0 || par > w {
		par = w
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Each hop owns exactly one slot k of these slices, so the
			// writes are disjoint and need no lock; wg.Wait publishes them.
			var hopErr error
			defer func() {
				errs[k] = hopErr //cgvet:ignore lockdiscipline -- index-disjoint, one k per goroutine
			}()
			defer recoverToError(&hopErr)
			sem <- struct{}{}
			defer func() { <-sem }()
			busy.Add(1)
			defer busy.Add(-1)
			// Cancellation and injected faults are observed at the hop
			// boundary, before the hop's work starts.
			if hopErr = checkpoint(cfg.Ctx, faults.CoreOverlayBuild); hopErr != nil {
				return
			}
			// Fork: each hop renders on its own trace track, so the
			// Chrome view shows the hops' actual overlap.
			sp := cfg.Trace.Fork("hop",
				obs.Int("snapshot", k), obs.Int("batch", rep.Deltas[k].Len()))
			pprof.Do(ctx, pprof.Labels("cg_executor", "direct-hop-parallel"), func(context.Context) {
				start := time.Now()
				og := rep.SnapshotGraph(k)
				st := baseState.Clone()
				shard.IncrementalAdd(og, st, rep.Deltas[k].Edges(), cfg.Engine.WithSpan(sp))
				durations[k] = time.Since(start)                         //cgvet:ignore lockdiscipline -- index-disjoint, one k per goroutine
				res.Snapshots[k] = snapshotResult(k, st, cfg.KeepValues) //cgvet:ignore lockdiscipline -- index-disjoint, one k per goroutine
			})
			sp.End()
			hops.Observe(durations[k])
		}(k)
	}
	wg.Wait()
	// Hop failures (including recovered panics) join into one error; a
	// partial snapshot slice is never returned.
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for k := 0; k < w; k++ {
		res.AdditionsProcessed += int64(rep.Deltas[k].Len())
		if durations[k] > res.MaxHopTime {
			res.MaxHopTime = durations[k]
		}
	}
	return res, nil
}

// WorkSharing evaluates the window along a schedule tree: the common graph
// is solved once, and the DFS streams each schedule edge's merged batch
// exactly once, sharing both the batch's streaming and the intermediate
// common graph states among every snapshot below it (§3.2).
func WorkSharing(rep *Rep, tg *TG, sched *Schedule, cfg Config) (*Result, error) {
	if tg.W != rep.Window.Width() {
		return nil, fmt.Errorf("core: TG width %d does not match window width %d", tg.W, rep.Window.Width())
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
	hops := obs.HopSeconds("work-sharing")

	if sched.Root.IsLeaf() {
		// Single-snapshot window: the common graph is the snapshot.
		res.Snapshots = append(res.Snapshots, snapshotResult(0, baseState, cfg.KeepValues))
		return res, nil
	}

	// Labels and overlay stacks come from the schedule's memo; only its
	// first evaluation pays for them.
	tL := time.Now()
	sched.executable()
	res.Cost.OverlayBuild += time.Since(tL)

	var walk func(n *ScheduleNode, st *engine.State) error
	walk = func(n *ScheduleNode, st *engine.State) error {
		if n.IsLeaf() {
			res.Snapshots = append(res.Snapshots, snapshotResult(n.I, st, cfg.KeepValues))
			return nil
		}
		for idx, e := range n.Edges {
			// Schedule-edge boundary: cancellation (and armed faults) stop
			// the DFS here, before the edge's batch is streamed.
			if err := checkpoint(cfg.Ctx, faults.CoreSubtreeWalk); err != nil {
				return err
			}
			// A root edge opens one of the independent subtrees — the
			// Table 5 unit this strategy would parallelize — so its whole
			// walk is timed for MaxHopTime and the hop histogram.
			rootEdge := n == sched.Root
			var subtreeStart time.Time
			if rootEdge {
				subtreeStart = time.Now()
			}
			sp := cfg.Trace.StartChild("schedule.edge",
				obs.String("from", nodeRef(n)), obs.String("to", nodeRef(e.To)),
				obs.Int("spans", len(e.Spans)))
			t1 := time.Now()
			og := edgeGraph(rep, e)
			t2 := time.Now()
			res.Cost.OverlayBuild += t2.Sub(t1)

			child := st
			if idx < len(n.Edges)-1 {
				child = st.Clone() // further siblings still need st
			}
			t3 := time.Now()
			res.Cost.StateClone += t3.Sub(t2)

			s := shard.IncrementalAddParts(og, child, e.parts, cfg.Engine.WithSpan(sp))
			res.Cost.IncrementalAdd += time.Since(t3)
			sp.SetAttr(obs.Int64("batch", e.AddCount))
			sp.End()
			res.Work.Add(s)
			res.AdditionsProcessed += e.AddCount
			if err := walk(e.To, child); err != nil {
				return err
			}
			if rootEdge {
				d := time.Since(subtreeStart)
				hops.Observe(d)
				if d > res.MaxHopTime {
					res.MaxHopTime = d
				}
			}
		}
		return nil
	}
	// The walk runs panic-contained: a panicking subtree (a bug, or an
	// armed Panic-mode fault) surfaces as a *PanicError instead of killing
	// the calling service.
	err := func() (err error) {
		defer recoverToError(&err)
		return walk(sched.Root, baseState)
	}()
	if err != nil {
		return nil, err
	}
	// Snapshots arrive in DFS order; restore window order.
	ordered := make([]SnapshotResult, len(res.Snapshots))
	for _, s := range res.Snapshots {
		ordered[s.Index] = s
	}
	res.Snapshots = ordered
	return res, nil
}

// edgeGraph is the graph at a schedule edge's destination: the common
// base under the edge's memoized overlay stack. The graph at leaf k is
// exactly base + Δ_ck, and Δ_ck is already materialized canonically in
// the representation, so a leaf takes the rep's single Direct-Hop overlay
// instead of a stack of the accumulated parts.
func edgeGraph(rep *Rep, e *ScheduleEdge) *delta.OverlayGraph {
	if e.To.IsLeaf() {
		return rep.SnapshotGraph(e.To.I)
	}
	return delta.NewOverlayGraph(rep.Base, e.stack...)
}

// EvaluateWorkSharing is the one-call §3.2 pipeline: take the rep's TG
// and schedule (greedy Algorithm 1, or the interval DP when
// cfg.OptimalSchedule is set) and execute.
func EvaluateWorkSharing(rep *Rep, cfg Config) (*Result, *Schedule, error) {
	tg, sched, _, err := rep.Schedule(cfg.Ctx, cfg.OptimalSchedule)
	if err != nil {
		return nil, nil, err
	}
	res, err := WorkSharing(rep, tg, sched, cfg)
	return res, sched, err
}
