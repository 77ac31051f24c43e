package core

import (
	"context"
	"fmt"
	"time"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/engine"
	"commongraph/internal/faults"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
)

// Config selects what to evaluate over a window and how.
type Config struct {
	Algo   algo.Algorithm
	Source graph.VertexID
	Engine engine.Options
	// KeepValues retains the full per-snapshot value arrays in the result
	// (tests and small runs); otherwise only counts and checksums are kept.
	KeepValues bool
	// Parallelism bounds how many hops of DirectHopParallel, or root
	// subtrees of WorkSharingParallel, run at once; 0 means all of them.
	Parallelism int
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
	st, stats := engine.Run(g, cfg.Algo, cfg.Source, cfg.Engine.WithSpan(sp))
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
	_, h, _ := st.Summary(false)
	return h
}

func snapshotResult(k int, st *engine.State, keep bool) SnapshotResult {
	reached, checksum, values := st.Summary(keep)
	return SnapshotResult{Index: k, Reached: reached, Checksum: checksum, Values: values}
}

// execution is one CommonGraph evaluation in progress: the set-up every
// strategy shares (the entry checkpoint and the common graph's solution)
// and the result its units — Direct-Hop's hops, Work-Sharing's root
// subtrees — account into.
type execution struct {
	rep   *Rep
	cfg   Config
	label string // strategy slug: the HopSeconds series and the pprof label
	// width is how many units may be in flight at once; at 1 they run in
	// order on the calling goroutine.
	width int
	base  *engine.State // the common graph's fixpoint
	// seeds[k] is the part of Deltas[k] hop k hands the engine (seedChain);
	// nil when nothing derived it, and a hop then streams its whole batch.
	seeds []graph.EdgeList
	res   *Result
}

// start passes the entry checkpoint and solves the common graph. A
// parallel strategy runs cfg.Parallelism of its units at a time (all of
// them when that is zero), any other strategy one.
func start(rep *Rep, cfg Config, label string, units int, parallel bool) (*execution, error) {
	if err := checkpoint(cfg.Ctx, faults.CoreEngineRun); err != nil {
		return nil, err
	}
	x := &execution{rep: rep, cfg: cfg, label: label, width: 1,
		res: &Result{Snapshots: make([]SnapshotResult, len(rep.Deltas))}}
	if parallel {
		x.width = cfg.Parallelism
		if x.width <= 0 || x.width > units {
			x.width = units
		}
	}
	t0 := time.Now()
	var stats engine.Stats
	x.base, stats = solveCommon(rep.Base, cfg)
	x.res.Cost.InitialCompute = time.Since(t0)
	x.res.Work.Add(stats)
	return x, nil
}

// absorb folds one unit's accounting into r. Snapshot results never pass
// through here: units write them to the evaluation's Snapshots directly.
func (r *Result) absorb(u *Result) {
	r.Cost.IncrementalAdd += u.Cost.IncrementalAdd
	r.Cost.OverlayBuild += u.Cost.OverlayBuild
	r.Cost.StateClone += u.Cost.StateClone
	r.Work.Add(u.Work)
	r.AdditionsProcessed += u.AdditionsProcessed
	for k, cause := range u.SnapshotErrors {
		r.degrade(k, cause)
	}
}

// degrade records that snapshot k was recomputed on the fallback path
// after cause.
func (r *Result) degrade(k int, cause error) {
	r.Degraded = true
	if r.SnapshotErrors == nil {
		r.SnapshotErrors = make(map[int]error)
	}
	r.SnapshotErrors[k] = cause
}

// unitDone records a finished unit: the units are mutually independent,
// so the longest one estimates the wall time with a core per unit
// (Table 5).
func (r *Result) unitDone(hops *obs.Histogram, d time.Duration) {
	hops.Observe(d)
	if d > r.MaxHopTime {
		r.MaxHopTime = d
	}
}

// appendUseful appends to dst the edges of batch whose candidate, computed
// from the common fixpoint base, improves their destination's common
// value — the only additions that can seed anything (DESIGN.md
// "Direct-Hop seeding").
func appendUseful(dst graph.EdgeList, base *engine.State, batch graph.EdgeList) graph.EdgeList {
	a := base.Algorithm()
	id, min := a.Identity(), a.Direction() == algo.Minimize
	for _, e := range batch {
		uval := base.Value(e.Src)
		if uval == id {
			continue
		}
		if base.Improves(e.Dst, a.Propagate(uval, e.W), min) {
			dst = append(dst, e)
		}
	}
	return dst
}

// seedChain derives every hop's useful seed set S_k = useful(Deltas[k])
// from the common fixpoint without filtering each batch: S_0 filters
// Deltas[0], and S_k follows by the recurrence BuildRep derives the deltas
// with, S_{k+1} = (S_k \ Δ−_k) ∪ useful(Δ+_k), on the window's own
// batches — O(|Δ_c0| + Σ|Δ_k| + Σ|S_k|) sequential steps where the hops
// would spend Σ|Δ_ck| random-access relaxations. Patch keeps S_k's copy of
// an edge it still holds and takes Δ+_k's of one Δ−_k removed first,
// exactly as the deltas do, so a re-weighted edge carries the weight the
// hop's overlay does. Each S_k is allocated once, at its bound. The
// chain's time counts as IncrementalAdd: it is the seeding the hops no
// longer do. It returns Σ|S_k|.
func (x *execution) seedChain() (useful int64) {
	t0 := time.Now()
	sp := x.cfg.Trace.StartChild("hop.seeds")
	w, deltas := x.rep.Window, x.rep.Deltas
	x.seeds = make([]graph.EdgeList, len(deltas))
	x.seeds[0] = appendUseful(nil, x.base, deltas[0].Edges())
	useful = int64(len(x.seeds[0]))
	var adds graph.EdgeList
	for k := 1; k < len(deltas); k++ {
		adds = appendUseful(adds[:0], x.base, w.additions(k-1))
		x.seeds[k] = graph.Patch(x.seeds[k-1], w.deletions(k-1), adds)
		useful += int64(len(x.seeds[k]))
	}
	sp.SetAttr(obs.Int64("streamed", x.rep.TotalDeltaEdges()), obs.Int64("useful", useful))
	sp.End()
	x.res.Cost.IncrementalAdd += time.Since(t0)
	return useful
}

// SeedShare solves the query on the window's common graph and derives
// Direct-Hop's seed sets without running a hop: streamed is Σ|Δ_ck|, the
// additions the star schedule streams, and useful is Σ|S_k|, the ones a
// hop hands the engine.
func SeedShare(rep *Rep, cfg Config) (streamed, useful int64, err error) {
	defer recoverToError(&err)
	x, err := start(rep, cfg, "direct-hop", len(rep.Deltas), false)
	if err != nil {
		return 0, 0, err
	}
	return rep.TotalDeltaEdges(), x.seedChain(), nil
}

// hop reaches snapshot k from the common graph's solution (§3.1): the
// snapshot's leaf overlay, a copy of the base state and the batch's useful
// seeds (the whole batch where no chain derived them), accounted into acc.
// It is a schedule-edge boundary, so cancellation and injected faults are
// observed before the work starts. With fork the hop's span renders on its
// own trace track, showing the real overlap of concurrent hops. The copy
// is dead once its summary is taken and goes back to the free list.
func (x *execution) hop(k int, parent *obs.Span, name string, fork bool, acc *Result) error {
	if err := checkpoint(x.cfg.Ctx, faults.CoreOverlayBuild); err != nil {
		return err
	}
	batch := x.rep.Deltas[k]
	seeds := batch.Edges()
	if x.seeds != nil {
		seeds = x.seeds[k]
	}
	attrs := []obs.Attr{obs.Int("snapshot", k), obs.Int("batch", batch.Len()), obs.Int("seeds", len(seeds))}
	var sp *obs.Span
	if fork {
		sp = parent.Fork(name, attrs...)
	} else {
		sp = parent.StartChild(name, attrs...)
	}
	t1 := time.Now()
	og := x.rep.SnapshotGraph(k)
	t2 := time.Now()
	st := x.base.CloneRecycled()
	t3 := time.Now()
	s := engine.IncrementalAdd(og, st, seeds, x.cfg.Engine.WithSpan(sp))
	t4 := time.Now()
	sp.End()
	acc.Cost.OverlayBuild += t2.Sub(t1)
	acc.Cost.StateClone += t3.Sub(t2)
	acc.Cost.IncrementalAdd += t4.Sub(t3)
	acc.Work.Add(s)
	acc.AdditionsProcessed += int64(batch.Len())
	x.res.Snapshots[k] = snapshotResult(k, st, x.cfg.KeepValues)
	st.Recycle()
	return nil
}

// DirectHop evaluates the query on every snapshot of the window via §3.1:
// solve the common graph once, then for each snapshot independently stream
// its Δ_ck addition batch and update incrementally. Sequential; see
// DirectHopParallel for the parallel variant.
func DirectHop(rep *Rep, cfg Config) (*Result, error) {
	return directHop(rep, cfg, "direct-hop", false)
}

// DirectHopParallel runs the hops of DirectHop concurrently (the paper's
// Table 5), Config.Parallelism at a time: hops are independent because
// each starts from the common graph's solution, the dependency streaming
// imposes having been broken. MaxHopTime in the result is the longest
// single hop.
func DirectHopParallel(rep *Rep, cfg Config) (*Result, error) {
	return directHop(rep, cfg, "direct-hop-parallel", true)
}

func directHop(rep *Rep, cfg Config, label string, parallel bool) (res *Result, err error) {
	defer recoverToError(&err)
	x, err := start(rep, cfg, label, len(rep.Deltas), parallel)
	if err != nil {
		return nil, err
	}
	x.seedChain()
	err = x.each(len(rep.Deltas), func(k int, acc *Result) error {
		return x.hop(k, cfg.Trace, "hop", x.width > 1, acc)
	})
	if err != nil {
		return nil, err
	}
	return x.res, nil
}

// WorkSharing evaluates the window along a schedule tree: the common graph
// is solved once, and the DFS streams each schedule edge's merged batch
// exactly once, sharing both the batch's streaming and the intermediate
// common graph states among every snapshot below it (§3.2). The root's
// subtrees are walked in order on the calling goroutine.
func WorkSharing(rep *Rep, tg *TG, sched *Schedule, cfg Config) (*Result, error) {
	return workSharing(rep, tg, sched, cfg, "work-sharing", false)
}

// WorkSharingParallel executes a schedule with the root's child subtrees
// running concurrently, Config.Parallelism at a time — the parallelization
// §5 notes is possible for the work-sharing algorithm ("resulting in a
// more work efficient algorithm" than parallel direct hop). Subtrees are
// independent: each starts from its own clone of the common graph's
// solution, so no synchronization is needed beyond joining.
//
// Fault tolerance: every subtree runs panic-contained — a panic becomes a
// *PanicError instead of crashing the process — and cancellation is
// observed at each schedule-edge boundary. When Config.Degrade is set, a
// failed subtree falls back to Direct-Hop recomputation of its snapshots
// from the base state and the Result is marked Degraded with the
// per-snapshot failure cause; otherwise a failure aborts the whole
// evaluation.
//
// Result.MaxHopTime reports the longest subtree (the wall-time estimate
// with one core per subtree); the Cost fields aggregate CPU time across
// subtrees.
func WorkSharingParallel(rep *Rep, tg *TG, sched *Schedule, cfg Config) (*Result, error) {
	return workSharing(rep, tg, sched, cfg, "work-sharing-parallel", true)
}

func workSharing(rep *Rep, tg *TG, sched *Schedule, cfg Config, label string, parallel bool) (res *Result, err error) {
	defer recoverToError(&err)
	if tg.W != rep.Window.Width() {
		return nil, fmt.Errorf("core: TG width %d does not match window width %d", tg.W, rep.Window.Width())
	}
	roots := sched.Root.Edges
	x, err := start(rep, cfg, label, len(roots), parallel)
	if err != nil {
		return nil, err
	}
	if sched.Root.IsLeaf() {
		// Single-snapshot window: the common graph is the snapshot.
		x.res.Snapshots[0] = snapshotResult(0, x.base, cfg.KeepValues)
		return x.res, nil
	}
	// Labels and overlay stacks come from the schedule's memo; only its
	// first evaluation pays for them.
	tL := time.Now()
	sched.executable()
	x.res.Cost.OverlayBuild = time.Since(tL)

	err = x.each(len(roots), func(i int, acc *Result) error {
		if parallel {
			return x.isolatedSubtree(sched.Root, roots[i], acc)
		}
		return x.walkSubtree(sched.Root, roots[i], childState(x.base, i == len(roots)-1, acc), cfg.Trace, acc)
	})
	if err != nil {
		return nil, err
	}
	return x.res, nil
}

// childState is the state one of a node's outgoing edges starts from:
// the last sibling takes its parent's state, the others — whose later
// siblings still need it — a copy in recycled storage.
func childState(st *engine.State, last bool, acc *Result) *engine.State {
	if last {
		return st
	}
	t := time.Now()
	st = st.CloneRecycled()
	acc.Cost.StateClone += time.Since(t)
	return st
}

// walkSubtree executes the schedule edge e out of node from and the
// subtree below it, from state st, which it owns. Every invocation is a
// schedule-edge boundary: cancellation and armed faults are observed
// before the edge's batch is streamed.
func (x *execution) walkSubtree(from *ScheduleNode, e *ScheduleEdge, st *engine.State, parent *obs.Span, acc *Result) error {
	if err := checkpoint(x.cfg.Ctx, faults.CoreSubtreeWalk); err != nil {
		return err
	}
	sp := parent.StartChild("schedule.edge",
		obs.String("from", nodeRef(from)), obs.String("to", nodeRef(e.To)),
		obs.Int("spans", len(e.Spans)))
	t1 := time.Now()
	og := edgeGraph(x.rep, e)
	t2 := time.Now()
	acc.Cost.OverlayBuild += t2.Sub(t1)

	s := engine.IncrementalAddParts(og, st, e.parts, x.cfg.Engine.WithSpan(sp))
	acc.Cost.IncrementalAdd += time.Since(t2)
	sp.SetAttr(obs.Int64("batch", e.AddCount))
	sp.End()
	acc.Work.Add(s)
	acc.AdditionsProcessed += e.AddCount

	if e.To.IsLeaf() {
		x.res.Snapshots[e.To.I] = snapshotResult(e.To.I, st, x.cfg.KeepValues)
		// The walk's state dies here. The last root subtree of a sequential
		// walk runs on the base state itself, which is never recycled.
		if st != x.base {
			st.Recycle()
		}
		return nil
	}
	for idx, child := range e.To.Edges {
		if err := x.walkSubtree(e.To, child, childState(st, idx == len(e.To.Edges)-1, acc), parent, acc); err != nil {
			return err
		}
	}
	return nil
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
// and schedule and execute.
func EvaluateWorkSharing(rep *Rep, cfg Config) (*Result, *Schedule, error) {
	tg, sched, _, err := rep.Schedule(cfg.Ctx)
	if err != nil {
		return nil, nil, err
	}
	res, err := WorkSharing(rep, tg, sched, cfg)
	return res, sched, err
}
