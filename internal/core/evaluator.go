package core

import (
	"context"
	"fmt"
	"runtime"
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
	// Workers is the evaluation's one worker budget B (0 = GOMAXPROCS): a
	// concurrent strategy runs min(units, B) units at a time, and the
	// sequential strategies ignore it. Every engine pass runs on its
	// unit's goroutine (DESIGN.md "Engine").
	Workers int
	// KeepValues retains the full per-snapshot value arrays in the result
	// (tests and small runs); otherwise only counts and checksums are kept.
	KeepValues bool
	// Ctx cancels the evaluation cooperatively: it is observed at every
	// schedule-edge boundary, so a deadline or client disconnect stops the
	// work within one edge. Nil means the evaluation is never cancelled.
	Ctx context.Context
	// Degrade lets the concurrent strategies (DirectHopParallel,
	// WorkSharingParallel) survive a failed (erroring or panicking) unit:
	// the unit's snapshots are recomputed along the star from the base
	// state and the Result is marked Degraded, instead of the whole query
	// failing.
	Degrade bool
	// Trace, when non-nil, is the query's root span: executors hang
	// schedule-level spans off it (common.solve, schedule.edge, subtree —
	// the taxonomy DESIGN.md "Observability" documents) and the engine
	// nests its per-pass spans below those. Nil — the default — disables
	// tracing at one pointer test per span site; the hot per-vertex loop is
	// never instrumented either way.
	Trace *obs.Span
	// Common, when non-nil, is a pre-solved fixpoint state for the
	// window's common graph: solveCommon clones it, into recycled storage,
	// instead of running the from-scratch solve, and never writes or
	// recycles it. The caller owns correctness — the state must be the
	// exact fixpoint of (Algo, Source) on the rep's base graph. The
	// cross-query PlanCache uses this to share one common-graph solve
	// among overlapping concurrent queries.
	Common *engine.State
}

// budget is the evaluation's worker budget B.
func (cfg Config) budget() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// nodeRef renders a schedule node as "i,j" for span attributes. In a
// schedule tree every node has one incoming edge, so the destination ref
// alone identifies a schedule edge. Call sites render only for a live
// span, so an untraced walk formats nothing; it is a variable so a test
// can count the calls.
var nodeRef = func(n *ScheduleNode) string { return fmt.Sprintf("%d,%d", n.I, n.J) }

// solveCommon is the shared from-scratch solve on the common graph, under
// a "common.solve" span (with the engine's own pass span nested inside).
// The state it returns is the evaluation's own, in recycled storage.
func solveCommon(g delta.Graph, cfg Config) (*engine.State, engine.Stats) {
	if cfg.Common != nil {
		sp := cfg.Trace.StartChild("common.reuse")
		st := cfg.Common.CloneRecycled()
		sp.End()
		return st, engine.Stats{}
	}
	sp := cfg.Trace.StartChild("common.solve")
	st, stats := engine.Run(g, cfg.Algo, cfg.Source, engine.Options{Span: sp})
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
	return context.Background() // a nil Config.Ctx is never cancelled
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
	// Degraded marks that at least one concurrent unit failed and its
	// snapshots were recomputed along the star (Config.Degrade). Degraded
	// snapshot values are still exact — the fallback recomputes from the
	// base state — only the work sharing was lost.
	Degraded bool
	// SnapshotErrors records, per window-relative snapshot index, the
	// original unit failure that forced that snapshot onto the fallback
	// path. Nil unless Degraded.
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
// and the result its units — the schedule's root edges and the subtrees
// below them — account into.
type execution struct {
	rep   *Rep
	cfg   Config
	label string // strategy slug: the HopSeconds series and the pprof label
	// width is how many units may be in flight at once; at 1 they run in
	// order on the calling goroutine.
	width int
	base  *engine.State // the common graph's fixpoint
	// seeds[k] is the part of Deltas[k] an edge from the root into leaf k
	// hands the engine (seedChain); nil when nothing derived it.
	seeds [][]graph.Edge
	res   *Result
}

// start passes the entry checkpoint and solves the common graph.
func start(rep *Rep, cfg Config, label string) (*execution, error) {
	if err := checkpoint(cfg.Ctx, faults.CoreEngineRun); err != nil {
		return nil, err
	}
	x := &execution{rep: rep, cfg: cfg, label: label,
		res: &Result{Snapshots: make([]SnapshotResult, len(rep.Deltas))}}
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
	id := a.Identity()
	for _, e := range batch {
		uval := base.Value(e.Src)
		if uval == id {
			continue
		}
		if base.Improves(e.Dst, a.Propagate(uval, e.W)) {
			dst = append(dst, e)
		}
	}
	return dst
}

// seedChain derives every leaf's useful seed set S_k = useful(Deltas[k])
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
	x.seeds = make([][]graph.Edge, len(deltas))
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
	x, err := start(rep, cfg, "direct-hop")
	if err != nil {
		return 0, 0, err
	}
	defer x.base.Recycle()
	return rep.TotalDeltaEdges(), x.seedChain(), nil
}

// DirectHop evaluates the query on every snapshot of the window via §3.1:
// solve the common graph once, then reach each snapshot independently
// along the star, streaming its Δ_ck addition batch — the useful part of
// it, by the seed chain. Sequential; see DirectHopParallel for the
// concurrent variant.
func DirectHop(rep *Rep, cfg Config) (*Result, error) {
	return walk(rep, rep.star(), cfg, "direct-hop", false)
}

// DirectHopParallel runs the hops of DirectHop concurrently (the paper's
// Table 5), within the worker budget: hops are independent because each
// starts from the common graph's solution, the dependency streaming
// imposes having been broken. Each hop runs panic-contained, and with
// Config.Degrade a failed one is walked again from the base state.
// MaxHopTime in the result is the longest single hop.
func DirectHopParallel(rep *Rep, cfg Config) (*Result, error) {
	return walk(rep, rep.star(), cfg, "direct-hop-parallel", true)
}

// WorkSharing evaluates the window along a schedule tree: the common graph
// is solved once, and the DFS streams each schedule edge's merged batch
// exactly once, sharing both the batch's streaming and the intermediate
// common graph states among every snapshot below it (§3.2). The root's
// subtrees are walked in order on the calling goroutine.
func WorkSharing(rep *Rep, tg *TG, sched *Schedule, cfg Config) (*Result, error) {
	if err := checkWidth(rep, tg); err != nil {
		return nil, err
	}
	return walk(rep, sched, cfg, "work-sharing", false)
}

// WorkSharingParallel executes a schedule with the root's child subtrees
// running concurrently, within the worker budget — the parallelization
// §5 notes is possible for the work-sharing algorithm ("resulting in a
// more work efficient algorithm" than parallel direct hop). Subtrees are
// independent: each starts from its own clone of the common graph's
// solution, so no synchronization is needed beyond joining.
//
// Fault tolerance, as for DirectHopParallel: every subtree runs
// panic-contained — a panic becomes a *PanicError instead of crashing the
// process — and cancellation is observed at each schedule-edge boundary.
// When Config.Degrade is set, a failed subtree's snapshots are recomputed
// along the star from the base state and the Result is marked Degraded
// with the per-snapshot failure cause; otherwise a failure aborts the
// whole evaluation.
//
// Result.MaxHopTime reports the longest subtree (the wall-time estimate
// with one core per subtree); the Cost fields aggregate CPU time across
// subtrees.
func WorkSharingParallel(rep *Rep, tg *TG, sched *Schedule, cfg Config) (*Result, error) {
	if err := checkWidth(rep, tg); err != nil {
		return nil, err
	}
	return walk(rep, sched, cfg, "work-sharing-parallel", true)
}

func checkWidth(rep *Rep, tg *TG) error {
	if tg.W != rep.Window.Width() {
		return fmt.Errorf("core: TG width %d does not match window width %d", tg.W, rep.Window.Width())
	}
	return nil
}

// walk is every CommonGraph strategy: solve the common graph once, then
// walk the schedule's root edges as independent units, each with the
// subtree below it. Sequential units run in order on the calling
// goroutine, and the last one takes the base state itself. Isolated units
// run concurrently, min(units, B) at a time, each from its own copy of
// the base state and panic-contained, so that Config.Degrade can
// recompute a failed one along the star. Every unit has been joined when
// the walk returns, so the base state goes back to the free list then.
func walk(rep *Rep, sched *Schedule, cfg Config, label string, isolated bool) (res *Result, err error) {
	defer recoverToError(&err)
	x, err := start(rep, cfg, label)
	if err != nil {
		return nil, err
	}
	defer x.base.Recycle()
	width := 1
	if isolated {
		width = min(len(sched.Root.Edges), cfg.budget())
	}
	if err := x.run(sched, isolated, width); err != nil {
		return nil, err
	}
	return x.res, nil
}

// run walks sched from the common graph's solution, width units at a
// time. The star's walk derives the seed chain first.
func (x *execution) run(sched *Schedule, isolated bool, width int) error {
	root := sched.Root
	if root.IsLeaf() {
		// Single-snapshot window: the common graph is the snapshot.
		x.res.Snapshots[0] = snapshotResult(0, x.base, x.cfg.KeepValues)
		return nil
	}
	if sched.star {
		x.seedChain()
	}
	// Labels and overlay stacks come from the schedule's memo; only its
	// first evaluation pays for them.
	tL := time.Now()
	sched.executable()
	x.res.Cost.OverlayBuild += time.Since(tL)

	x.width = width
	units := root.Edges
	return x.each(len(units), func(i int, acc *Result) error {
		if isolated {
			return x.isolatedSubtree(root, units[i], acc)
		}
		return x.walkSubtree(root, units[i], childState(x.base, i == len(units)-1, acc), x.cfg.Trace, acc)
	})
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
	parts := x.batch(from, e)
	seeds := 0
	for _, p := range parts {
		seeds += len(p)
	}
	sp := parent.StartChild("schedule.edge")
	if sp != nil {
		sp.SetAttr(obs.String("from", nodeRef(from)), obs.String("to", nodeRef(e.To)),
			obs.Int("spans", len(e.Spans)), obs.Int64("batch", e.AddCount), obs.Int("seeds", seeds))
	}
	t1 := time.Now()
	og := edgeGraph(x.rep, e)
	t2 := time.Now()
	acc.Cost.OverlayBuild += t2.Sub(t1)

	s := engine.IncrementalAddParts(og, st, parts, engine.Options{Span: sp})
	acc.Cost.IncrementalAdd += time.Since(t2)
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

// batch is what schedule edge e out of node from hands the engine. An
// edge from the root into leaf k streams Δ_ck whatever the schedule, so
// where the seed chain was derived its useful part S_k stands in for it;
// every other edge streams its label parts.
func (x *execution) batch(from *ScheduleNode, e *ScheduleEdge) [][]graph.Edge {
	if x.seeds != nil && e.To.IsLeaf() && from.I == 0 && from.J == len(x.seeds)-1 {
		return x.seeds[e.To.I : e.To.I+1]
	}
	return e.parts
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
