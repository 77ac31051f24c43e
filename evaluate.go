package commongraph

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"commongraph/internal/core"
	"commongraph/internal/engine"
	"commongraph/internal/kickstarter"
	"commongraph/internal/obs"
)

// Strategy selects how a window of snapshots is evaluated.
type Strategy int

const (
	// KickStarter is the streaming baseline: evaluate the first snapshot
	// from scratch, then stream each transition's additions and deletions
	// in sequence, mutating the graph in place and trimming on deletions.
	KickStarter Strategy = iota
	// Independent evaluates every snapshot from scratch on its own
	// materialized graph — §1's "straightforward approach", kept as the
	// naive baseline and a correctness oracle at scale.
	Independent
	// DirectHop solves the common graph once and reaches each snapshot
	// independently with one addition batch (§3.1). No deletions, no
	// mutation.
	DirectHop
	// DirectHopParallel is DirectHop with its hops run concurrently
	// (the paper's Table 5 configuration), within Options.Workers.
	DirectHopParallel
	// WorkSharing evaluates along the Steiner-tree schedule over the
	// Triangular Grid, sharing addition batches among snapshot
	// subsequences (§3.2, Algorithm 1).
	WorkSharing
	// WorkSharingParallel executes the schedule's root subtrees
	// concurrently, within Options.Workers — the parallelization of work
	// sharing the paper notes as future work in §5.
	WorkSharingParallel
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case KickStarter:
		return "KickStarter"
	case Independent:
		return "Independent"
	case DirectHop:
		return "Direct-Hop"
	case DirectHopParallel:
		return "Direct-Hop(parallel)"
	case WorkSharing:
		return "Work-Sharing"
	case WorkSharingParallel:
		return "Work-Sharing(parallel)"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Slug names the strategy as a metric label value — the stable vocabulary
// of the commongraph_*_total{strategy=...} series and of trace span
// attributes (DESIGN.md "Observability").
func (s Strategy) Slug() string {
	switch s {
	case KickStarter:
		return "kickstarter"
	case Independent:
		return "independent"
	case DirectHop:
		return "direct-hop"
	case DirectHopParallel:
		return "direct-hop-parallel"
	case WorkSharing:
		return "work-sharing"
	case WorkSharingParallel:
		return "work-sharing-parallel"
	default:
		return fmt.Sprintf("strategy-%d", int(s))
	}
}

// ParseStrategy parses a strategy name: the Slug() form ("direct-hop"),
// the paper's String() form ("Direct-Hop"), or a short alias (ks, indep,
// dh, dhp, ws, wsp). Matching is case-insensitive, so every value either
// method prints round-trips back to its Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "kickstarter", "ks":
		return KickStarter, nil
	case "independent", "indep":
		return Independent, nil
	case "direct-hop", "dh":
		return DirectHop, nil
	case "direct-hop-parallel", "direct-hop(parallel)", "dhp":
		return DirectHopParallel, nil
	case "work-sharing", "ws":
		return WorkSharing, nil
	case "work-sharing-parallel", "work-sharing(parallel)", "wsp":
		return WorkSharingParallel, nil
	}
	return 0, fmt.Errorf("commongraph: unknown strategy %q (want one of %s)", s, strategyNames())
}

// Strategies returns all evaluation strategies in declaration order.
func Strategies() []Strategy {
	return []Strategy{KickStarter, Independent, DirectHop, DirectHopParallel, WorkSharing, WorkSharingParallel}
}

func strategyNames() string {
	names := make([]string, 0, 6)
	for _, s := range Strategies() {
		names = append(names, s.Slug())
	}
	return strings.Join(names, ", ")
}

// Options tunes an evaluation.
type Options struct {
	// Workers is the evaluation's worker budget (0 = GOMAXPROCS): it
	// counts units. DirectHopParallel and WorkSharingParallel run
	// min(units, Workers) hops or root subtrees at a time; the other
	// strategies run on the calling goroutine. Every engine pass runs on
	// the goroutine of the unit it belongs to. The engine's scheduler is
	// not an option: each pass's input picks it (§4.3).
	Workers int
	// KeepValues retains full per-snapshot value arrays in the result.
	KeepValues bool
	// Degrade makes DirectHopParallel and WorkSharingParallel survive a
	// failed unit — a hop or a schedule subtree, failing with an error or
	// a contained panic: the unit's snapshots are recomputed along the
	// Direct-Hop star from the base state and the Result is marked
	// Degraded, instead of the whole query failing. See DESIGN.md
	// "Failure semantics" for the exact contract.
	Degrade bool
	// Trace, when non-nil, records the evaluation's span tree on this
	// tracer: one root "evaluate" span per query with schedule-level
	// children (common.solve, schedule.edge, subtree, transitions)
	// down to engine passes — never per-vertex work. Nil falls back to
	// the process tracer armed by COMMONGRAPH_TRACE (EnvTracer), else to
	// the always-on ring-only flight recorder, whose completed root spans
	// land in a bounded ring instead of an event buffer.
	Trace *Tracer
	// Plan, when non-nil, shares solved common-graph states with every
	// other evaluation using the same cache, so concurrent queries with
	// overlapping windows do ~1x the common-graph work between them (see
	// PlanCache). Window representations and schedules are reused with or
	// without it: the EvolvingGraph keeps those itself. Applies to the
	// CommonGraph strategies only; KickStarter and Independent ignore it.
	Plan *PlanCache
}

// tracer resolves the evaluation's tracer: the explicit option, else the
// process ambient tracer (COMMONGRAPH_TRACE, else the flight recorder —
// nil only when flight recording is globally disabled).
func (o Options) tracer() *obs.Tracer {
	if o.Trace != nil {
		return o.Trace
	}
	return obs.Active()
}

// config builds the core configuration for one query under root span sp.
// Centralizing this keeps every entry point passing the full option set.
func (o Options) config(ctx context.Context, q Query, sp *obs.Span) core.Config {
	return core.Config{
		Algo:       q.Algorithm,
		Source:     q.Source,
		Workers:    o.Workers,
		KeepValues: o.KeepValues,
		Ctx:        ctx,
		Degrade:    o.Degrade,
		Trace:      sp,
	}
}

// Query is a standing query: an algorithm and its source vertex.
type Query struct {
	Algorithm Algorithm
	Source    VertexID
}

// SnapshotResult is the query outcome at one snapshot.
type SnapshotResult struct {
	// Index is the absolute snapshot index in the evolving graph.
	Index int
	// Reached counts vertices with a non-identity value.
	Reached int
	// Checksum fingerprints the full value array.
	Checksum uint64
	// Values holds per-vertex results when Options.KeepValues is set.
	Values []Value
}

// Timings attributes evaluation wall time to phases.
type Timings struct {
	// InitialCompute is the from-scratch solve (first snapshot for
	// KickStarter; common graph otherwise).
	InitialCompute time.Duration
	// IncrementalAdd is time spent applying addition batches.
	IncrementalAdd time.Duration
	// IncrementalDelete is trimming time (KickStarter only).
	IncrementalDelete time.Duration
	// Mutation is in-place graph update time (KickStarter) or, for the
	// CommonGraph strategies, the overlay and label construction paid by
	// this call: the whole of it on a window's first evaluation, close to
	// zero once the window's plan is warm (overlays and labels are kept
	// with the plan, see DESIGN.md "Window plans").
	Mutation time.Duration
	// StateClone is time spent copying query state at schedule branch
	// points (zero for KickStarter, which maintains one state in place).
	StateClone time.Duration
	// Total is the end-to-end evaluation time. For parallel strategies
	// the per-phase fields aggregate CPU time across workers and may
	// exceed Total; sequential strategies keep their sum within it.
	Total time.Duration
	// AllocBytes and Mallocs are the process heap-allocation deltas over
	// the evaluation (runtime.MemStats TotalAlloc/Mallocs). They are
	// populated only when tracing is enabled — ReadMemStats is too
	// expensive for the default path — and, being process-wide, include
	// whatever concurrent work was allocating at the same time.
	AllocBytes uint64
	Mallocs    uint64
}

// Result is the outcome of Run, RunMulti or Watcher.Run: per-snapshot
// results in snapshot order plus the evaluation's cost accounting.
type Result struct {
	Strategy  Strategy
	Snapshots []SnapshotResult
	Timings   Timings
	// AdditionsProcessed counts addition-batch edges streamed (the
	// schedule cost); DeletionsProcessed counts deletion-batch edges
	// (zero for the CommonGraph strategies).
	AdditionsProcessed int64
	DeletionsProcessed int64
	// MaxHopTime is the longest independent unit of the strategy — a
	// per-snapshot hop for Independent and Direct-Hop (sequential and
	// parallel), a root schedule subtree for Work-Sharing (sequential
	// and parallel) — i.e. the run time given one core per unit, the
	// paper's Table 5 estimate. Zero for KickStarter, whose transitions
	// form a single sequential chain.
	MaxHopTime time.Duration
	// Degraded reports that one or more units of a DirectHopParallel or
	// WorkSharingParallel evaluation failed and their snapshots were
	// recomputed along the Direct-Hop star (Options.Degrade). Degraded
	// values are still exact; only the work sharing was lost.
	Degraded bool
	// SnapshotErrors maps absolute snapshot index to the failure that
	// forced that snapshot onto the fallback path. Nil unless Degraded.
	SnapshotErrors map[int]error
	// Stale marks a result served by a replication follower that was
	// beyond its staleness budget at evaluation time
	// (FollowerConfig.ServeStale). The values are exact for the
	// follower's window; they may trail the primary's latest commits.
	Stale bool
	// EdgesEvaluated counts the out-edges the engine examined across
	// every pass of the evaluation — the measured work the query cost,
	// as opposed to AdditionsProcessed (the schedule's input size). The
	// query service weights tenant quota debits by it.
	EdgesEvaluated int64
}

// Window selects the inclusive snapshot range [From, To] of an evolving
// graph.
type Window struct {
	From, To int
}

// Width returns the number of snapshots in the window.
func (w Window) Width() int { return w.To - w.From + 1 }

// Request describes one evaluation: what to compute (Query), over which
// snapshots (Window), how (Strategy), and the tuning knobs (Options). It
// is the argument of Run, the primary entry point.
type Request struct {
	Query    Query
	Window   Window
	Strategy Strategy
	// Options tunes the evaluation.
	Options Options
}

// Run evaluates the request's query on every snapshot in its window using
// its strategy and returns per-snapshot results in snapshot order. The
// context cancels the evaluation cooperatively at every schedule-edge
// boundary; pass context.Background() (or nil, which means the same) when
// cancellation is not needed.
func (g *EvolvingGraph) Run(ctx context.Context, req Request) (*Result, error) {
	return g.run(ctx, req, nil)
}

// checkSource rejects a query source outside the graph's vertex space.
func (g *EvolvingGraph) checkSource(src VertexID) error {
	if int(src) >= g.NumVertices() {
		return fmt.Errorf("commongraph: source %d out of range %d", src, g.NumVertices())
	}
	return nil
}

// run is the query envelope every single-query entry point shares:
// validation, the root "evaluate" span, the slow log, the query counters,
// the incident on a contained panic and the wall-clock total around one
// strategy's execution. A Watcher passes the representation it maintains
// as held (req.Window is then that representation's window); it is the
// only thing a watcher evaluation does differently.
func (g *EvolvingGraph) run(ctx context.Context, req Request, held *core.Rep) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q, strategy, opt := req.Query, req.Strategy, req.Options
	if q.Algorithm == nil {
		return nil, fmt.Errorf("commongraph: query has no algorithm")
	}
	if err := g.checkSource(q.Source); err != nil {
		return nil, err
	}
	switch strategy {
	case DirectHop, DirectHopParallel, WorkSharing, WorkSharingParallel:
	case KickStarter, Independent:
		if held != nil {
			return nil, fmt.Errorf("commongraph: watcher supports only CommonGraph strategies, not %v", strategy)
		}
	default:
		return nil, fmt.Errorf("commongraph: unknown strategy %v", strategy)
	}
	w := core.Window{Store: g.store, From: req.Window.From, To: req.Window.To}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	slug := strategy.Slug()
	tr := opt.tracer()
	// The root span joins any trace context riding on the request context
	// (obs.ContextWithSpan) — a follower read links to the primary ingest
	// trace that produced the data it reads; a plain query starts fresh.
	sp := tr.StartRemote(obs.FromContext(ctx), "evaluate")
	if sp != nil {
		sp.SetAttr(obs.String("strategy", slug),
			obs.String("algo", q.Algorithm.Name()),
			obs.Int("source", int(q.Source)),
			obs.Int("from", w.From), obs.Int("to", w.To), obs.Int("width", w.Width()))
		if held != nil {
			sp.SetAttr(obs.String("origin", "watcher"))
		}
	}
	var m0 runtime.MemStats
	if tr.Detailed() {
		// ReadMemStats is too expensive for the always-on ring-only
		// recorder; only explicit/env tracers pay for alloc attribution.
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	var (
		res   *Result
		inner *core.Result
		err   error
	)
	switch strategy {
	case KickStarter:
		res, err = g.evaluateKickStarter(ctx, q, w, opt, sp)
	case Independent:
		inner, err = core.Independent(w, opt.config(ctx, q, sp))
	default:
		inner, err = g.runCommonGraph(w, held, strategy, opt, opt.config(ctx, q, sp))
	}
	obs.Queries(slug).Inc()
	slow := obs.SlowEntry{Trace: sp.TraceID(), Strategy: slug,
		Dur: time.Since(start), Start: start, From: w.From, To: w.To}
	if err != nil {
		obs.QueryErrors(slug).Inc()
		sp.SetAttr(obs.String("error", err.Error()))
		sp.End()
		slow.Err = err.Error()
		obs.Slow().Observe(slow)
		var pe *core.PanicError
		if errors.As(err, &pe) {
			// A contained panic is exactly the moment forensic state pays
			// off: dump the flight ring and slow log while they still hold
			// the offending trace.
			obs.Incident("panic", err)
		}
		return nil, err
	}
	if inner != nil {
		res = convertResult(inner, w.From, strategy)
	}
	res.Strategy = strategy
	res.Timings.Total = time.Since(start)
	slow.Dur = res.Timings.Total
	obs.Slow().Observe(slow)
	if tr.Detailed() {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		res.Timings.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
		res.Timings.Mallocs = m1.Mallocs - m0.Mallocs
		sp.SetAttr(obs.Int64("alloc_bytes", int64(res.Timings.AllocBytes)),
			obs.Int64("mallocs", int64(res.Timings.Mallocs)))
	}
	obs.AdditionsStreamed(slug).Add(res.AdditionsProcessed)
	obs.DeletionsStreamed(slug).Add(res.DeletionsProcessed)
	obs.SnapshotsEvaluated(slug).Add(int64(len(res.Snapshots)))
	if res.Degraded {
		sp.SetAttr(obs.Bool("degraded", true))
	}
	sp.SetAttr(obs.Int64("additions_processed", res.AdditionsProcessed),
		obs.Int64("deletions_processed", res.DeletionsProcessed))
	sp.End()
	return res, nil
}

func (g *EvolvingGraph) evaluateKickStarter(ctx context.Context, q Query, w core.Window, opt Options, sp *obs.Span) (*Result, error) {
	first, err := g.store.GetVersion(w.From)
	if err != nil {
		return nil, err
	}
	solve := sp.StartChild("common.solve")
	sys := kickstarter.New(g.NumVertices(), first, q.Algorithm, q.Source, engine.Options{Span: solve})
	solve.End()
	sys.Trace = sp
	res := &Result{}
	record := func(index int) {
		reached, checksum, values := sys.State().Summary(opt.KeepValues)
		res.Snapshots = append(res.Snapshots, SnapshotResult{Index: index, Reached: reached, Checksum: checksum, Values: values})
	}
	record(w.From)
	for t := w.From; t < w.To; t++ {
		// Transition boundary: the streaming baseline's equivalent of a
		// schedule edge, so cancellation is observed here.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("commongraph: evaluation cancelled at transition %d: %w", t, err)
		}
		add := g.store.Additions(t).Edges()
		del := g.store.Deletions(t).Edges()
		if err := sys.ApplyTransition(add, del); err != nil {
			return nil, err
		}
		res.AdditionsProcessed += int64(len(add))
		res.DeletionsProcessed += int64(len(del))
		record(t + 1)
	}
	res.Timings = Timings{
		InitialCompute:    sys.Cost.InitialCompute,
		IncrementalAdd:    sys.Cost.IncrementalAdd,
		IncrementalDelete: sys.Cost.IncrementalDelete,
		Mutation:          sys.Cost.MutateAdd + sys.Cost.MutateDelete,
	}
	res.EdgesEvaluated = sys.Work.EdgesPushed
	return res, nil
}

// runCommonGraph executes one CommonGraph strategy over window w — the
// shared tail of the EvolvingGraph and Watcher evaluation paths (a Watcher
// passes the representation it maintains as held). The window's plan
// comes from windowPlan; with a PlanCache configured the common-graph
// state comes from the cache too, so the strategy's own from-scratch
// solve is skipped.
func (g *EvolvingGraph) runCommonGraph(w core.Window, held *core.Rep, strategy Strategy, opt Options, cfg core.Config) (*core.Result, error) {
	walksSchedule := strategy == WorkSharing || strategy == WorkSharingParallel
	rep, tg, sched, err := g.windowPlan(cfg.Ctx, w, held, walksSchedule, opt, cfg.Trace)
	if err != nil {
		return nil, err
	}
	if opt.Plan != nil {
		if cfg.Common, err = opt.Plan.commonState(g, rep, cfg); err != nil {
			return nil, err
		}
	}
	switch strategy {
	case DirectHop:
		return core.DirectHop(rep, cfg)
	case DirectHopParallel:
		return core.DirectHopParallel(rep, cfg)
	case WorkSharing:
		return core.WorkSharing(rep, tg, sched, cfg)
	case WorkSharingParallel:
		return core.WorkSharingParallel(rep, tg, sched, cfg)
	}
	return nil, fmt.Errorf("commongraph: %v is not a CommonGraph strategy", strategy)
}

// Plan describes the evaluation schedules available for a window without
// executing them: the Direct-Hop cost, the Steiner-tree Work-Sharing cost,
// and a printable schedule tree — the §3 cost model.
type Plan struct {
	// Snapshots is the window width.
	Snapshots int
	// CommonEdges is |E_c|.
	CommonEdges int
	// DirectHopAdditions is the total Direct-Hop batch size (no sharing).
	DirectHopAdditions int64
	// WorkSharingAdditions is the Steiner schedule's cost (maximal sharing).
	WorkSharingAdditions int64
	// Depth is the Work-Sharing schedule's longest root-to-snapshot path, in schedule edges.
	Depth int
	// Tree renders the compressed Work-Sharing schedule.
	Tree string
}

// Plan computes the schedule comparison for [from, to]: the Work-Sharing
// schedule it reports is the one Run walks (both take the window's memoized
// plan), so its cost is the cost Run would actually pay. It records a
// "plan" span on the configured tracer.
func (g *EvolvingGraph) Plan(from, to int, opt Options) (*Plan, error) {
	sp := opt.tracer().StartSpan("plan", obs.Int("from", from), obs.Int("to", to))
	defer sp.End()
	w := core.Window{Store: g.store, From: from, To: to}
	rep, _, sched, err := g.windowPlan(context.Background(), w, nil, true, opt, sp)
	if err != nil {
		return nil, err
	}
	sp.SetAttr(obs.Int("snapshots", w.Width()),
		obs.Int("common_edges", rep.Base.NumEdges()),
		obs.Int64("direct_hop_additions", rep.TotalDeltaEdges()),
		obs.Int64("work_sharing_additions", sched.Cost))
	return &Plan{
		Snapshots:            w.Width(),
		CommonEdges:          rep.Base.NumEdges(),
		DirectHopAdditions:   rep.TotalDeltaEdges(),
		WorkSharingAdditions: sched.Cost,
		Depth:                sched.Depth(),
		Tree:                 sched.String(),
	}, nil
}

// SeedShare reports, for one query over [from, to], how much of Direct-Hop's
// streaming can seed anything: streamed is the star schedule's additions
// (Plan.DirectHopAdditions) and useful the additions whose relaxation from
// the common graph's solution improves their destination — the only ones a
// hop hands the engine. It solves the common graph once and runs no hop.
func (g *EvolvingGraph) SeedShare(ctx context.Context, q Query, from, to int, opt Options) (streamed, useful int64, err error) {
	if q.Algorithm == nil {
		return 0, 0, fmt.Errorf("commongraph: query has no algorithm")
	}
	if err := g.checkSource(q.Source); err != nil {
		return 0, 0, err
	}
	sp := opt.tracer().StartSpan("seed.share", obs.Int("from", from), obs.Int("to", to))
	defer sp.End()
	w := core.Window{Store: g.store, From: from, To: to}
	rep, _, _, err := g.windowPlan(ctx, w, nil, false, opt, sp)
	if err != nil {
		return 0, 0, err
	}
	return core.SeedShare(rep, opt.config(ctx, q, sp))
}
