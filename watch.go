package commongraph

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"commongraph/internal/core"
	"commongraph/internal/faults"
	"commongraph/internal/obs"
	"commongraph/internal/repl"
)

// Watcher keeps the CommonGraph representation of a snapshot window alive
// and up to date as the evolving graph grows — the maintenance behaviour
// of §4.1. Instead of rebuilding the common graph per query, a service
// appends snapshots as they arrive (and optionally slides the window
// forward) paying only incremental set work, then evaluates repeatedly.
//
// A Watcher is safe for concurrent use: maintenance (Append, Advance,
// Slide) takes the write lock while evaluations snapshot the current
// representation under the read lock. Representations are immutable once
// built, so an evaluation racing a slide simply computes over the window
// that was current when it started.
type Watcher struct {
	g     *EvolvingGraph
	mu    sync.RWMutex
	m     *core.MaintainedRep
	retry RetryPolicy

	// commitNotifier counts successful maintenance commits (Append,
	// Advance, Slide) and fans each one out to registered hooks.
	commitNotifier

	// Slide persistence (PersistMaintenance): once the window has moved
	// far enough forward, the snapshots behind it fold into the durable
	// store's base segment in the background (foldBehind). bgCtx is
	// cancelled by Close so queued folds drain instead of outliving the
	// watcher.
	persist        *GraphStore
	folding        atomic.Bool // a background fold is in flight
	bg             sync.WaitGroup
	bgCtx          context.Context
	bgCancel       context.CancelFunc
	compactErrMu   sync.Mutex
	lastCompactErr error
}

// RetryPolicy bounds the watcher's automatic retry of transient
// maintenance failures (a store backend briefly unavailable, an injected
// transient fault in tests). Non-transient errors are never retried.
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first;
	// values below 1 mean a single attempt (no retry).
	Attempts int
	// Backoff is the wait before the first retry; it doubles on each
	// subsequent one. The wait is interruptible: Watcher.Close cancels a
	// retry mid-backoff instead of waiting it out.
	Backoff time.Duration
	// Jitter spreads each wait uniformly over [d·(1−J), d·(1+J)) with a
	// deterministic seeded stream, so many watchers retrying against the
	// same briefly-unavailable backend do not re-attempt in lockstep.
	// 0 means the default 20%; negative disables jitter.
	Jitter float64
}

// DefaultRetry is the policy a new Watcher starts with: three attempts
// with a small doubling, jittered backoff.
var DefaultRetry = RetryPolicy{Attempts: 3, Backoff: 2 * time.Millisecond}

// Watch creates a maintained window over [from, to].
func (g *EvolvingGraph) Watch(from, to int) (*Watcher, error) {
	m, err := core.NewMaintainedRep(core.Window{Store: g.store, From: from, To: to})
	if err != nil {
		return nil, err
	}
	// The watcher is its own lifecycle root: background compactions run
	// until Close, not until some caller's request context ends.
	bgCtx, bgCancel := context.WithCancel(context.Background())
	return &Watcher{g: g, m: m, retry: DefaultRetry, bgCtx: bgCtx, bgCancel: bgCancel}, nil
}

// SetRetry replaces the watcher's maintenance retry policy.
func (w *Watcher) SetRetry(p RetryPolicy) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.retry = p
}

// commitNotifier is the window-generation counter and commit-hook fan-out
// shared by the Watcher and the replication Follower: anything that
// serves cached results over a maintained window keys its cache on the
// generation and invalidates from the hooks.
type commitNotifier struct {
	gen   atomic.Uint64
	hookM sync.Mutex
	hooks []func(gen uint64)
}

// Generation returns the window-commit counter: it increments once per
// successful maintenance step (Append, Advance, Slide — and, on a
// follower, each re-bootstrap). A result evaluated at generation G
// describes the window as of G; the query service keys its result cache
// on (query, window, generation) so a commit immediately invalidates
// every cached response.
func (c *commitNotifier) Generation() uint64 { return c.gen.Load() }

// OnCommit registers f to run after every successful maintenance commit,
// with the new generation. Hooks run synchronously on the maintaining
// goroutine, after the window lock is released — they may call back into
// the owner, but should stay cheap (cache invalidation, a metric).
func (c *commitNotifier) OnCommit(f func(gen uint64)) {
	c.hookM.Lock()
	c.hooks = append(c.hooks, f)
	c.hookM.Unlock()
}

// notifyCommit bumps the generation and runs the registered hooks.
// Called without the owner's window lock held.
func (c *commitNotifier) notifyCommit() {
	gen := c.gen.Add(1)
	c.hookM.Lock()
	hooks := make([]func(uint64), len(c.hooks))
	copy(hooks, c.hooks)
	c.hookM.Unlock()
	for _, f := range hooks {
		f(gen)
	}
}

// Window returns the watcher's current snapshot range.
func (w *Watcher) Window() (from, to int) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	win := w.m.Window()
	return win.From, win.To
}

// CommonEdges returns the current common graph's size.
func (w *Watcher) CommonEdges() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.m.Rep().Base.NumEdges()
}

// Append extends the window to the next snapshot, which must already have
// been created with ApplyUpdates.
func (w *Watcher) Append() error { return w.maintain("append", (*core.MaintainedRep).Append) }

// Advance drops the window's oldest snapshot.
func (w *Watcher) Advance() error { return w.maintain("advance", (*core.MaintainedRep).Advance) }

// Slide appends the next snapshot and drops the oldest, keeping the
// window's width. Slide is atomic: a failure in its second half rolls the
// maintained window back to its pre-Slide state.
func (w *Watcher) Slide() error { return w.maintain("slide", (*core.MaintainedRep).Slide) }

// PersistMaintenance ties the watcher's window to a durable store: when
// Advance or Slide has moved the window start forward far enough that
// the snapshots left behind hold 1/8 as many edges as the store's base
// segment, they are folded into it by a background compaction (no query
// will ask for them again — the slide compaction of DESIGN.md
// "Persistence"). A smaller backlog waits for a later slide. The
// watcher's graph should be the store's bound graph. WaitCompaction
// blocks until started folds finish and reports the most recent failure.
func (w *Watcher) PersistMaintenance(gs *GraphStore) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.persist = gs
}

// WaitCompaction blocks until all background slide compactions started so
// far complete, returning the most recent compaction error (compaction
// failures never affect the in-memory window, so maintenance itself does
// not surface them). It does not force a fold: a backlog still under 1/8
// of the base stays in overlay segments; GraphStore.Compact folds now.
func (w *Watcher) WaitCompaction() error {
	w.bg.Wait()
	w.compactErrMu.Lock()
	defer w.compactErrMu.Unlock()
	return w.lastCompactErr
}

// Close ends the watcher's background work: queued slide compactions that
// have not started are cancelled, one already inside the store completes
// (segment swaps are never torn), and Close waits for all of them to
// drain before returning the most recent real compaction failure.
// Cancellation itself is not an error. The watcher's window remains
// evaluable after Close; only the background persistence stops. Close is
// idempotent.
func (w *Watcher) Close() error {
	w.bgCancel()
	return w.WaitCompaction()
}

// maintain runs one maintenance step under the write lock, retrying
// transient failures per the watcher's policy. Maintenance steps swap the
// representation pointer only on success (Slide rolls back internally),
// so a failed step leaves the previous window fully evaluable.
//
// Each step is observable: one "watcher.<kind>" span on the process
// tracer (the new window, and what the step wrote into the common graph:
// rows_rewritten, edges_rewritten, compacted), the maintenance op/error
// counters by kind, and the retry counter per transient re-attempt.
func (w *Watcher) maintain(kind string, step func(*core.MaintainedRep) error) error {
	err := w.maintainLocked(kind, step)
	if err == nil {
		// The commit hooks (generation bump, serve-cache invalidation) run
		// after the window lock is released so they can call back into the
		// watcher without deadlocking.
		w.notifyCommit()
	}
	return err
}

func (w *Watcher) maintainLocked(kind string, step func(*core.MaintainedRep) error) error {
	sp := obs.Active().StartSpan("watcher." + kind)
	defer sp.End()
	w.mu.Lock()
	defer w.mu.Unlock()
	attempts := w.retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	// Jittered exponential waits (shared with the replication catch-up
	// loop), gated on the watcher's lifecycle context: Close interrupts a
	// backing-off retry instead of waiting it out.
	bo := repl.Backoff{Base: w.retry.Backoff, Jitter: w.retry.Jitter}
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			obs.MaintenanceRetries().Inc()
			sp.SetAttr(obs.Int("retry", try))
			if w.retry.Backoff > 0 {
				if serr := bo.Sleep(w.bgCtx); serr != nil {
					obs.MaintenanceErrors(kind).Inc()
					sp.SetAttr(obs.String("error", err.Error()))
					return fmt.Errorf("commongraph: maintenance retry interrupted by Close: %w", err)
				}
			}
		}
		err = step(w.m)
		if err == nil {
			obs.MaintenanceOps(kind).Inc()
			win, patched := w.m.Window(), w.m.Patched()
			sp.SetAttr(obs.Int("from", win.From), obs.Int("to", win.To),
				obs.Int("rows_rewritten", patched.Rows), obs.Int("edges_rewritten", patched.Edges),
				obs.Bool("compacted", patched.Compacted))
			if w.persist != nil && (kind == "advance" || kind == "slide") {
				w.foldBehind(win.From, sp)
			}
			return nil
		}
		if !faults.IsTransient(err) {
			obs.MaintenanceErrors(kind).Inc()
			sp.SetAttr(obs.String("error", err.Error()))
			return err
		}
	}
	obs.MaintenanceErrors(kind).Inc()
	sp.SetAttr(obs.String("error", err.Error()))
	return fmt.Errorf("commongraph: maintenance failed after %d attempts: %w", attempts, err)
}

// foldBehind starts the background fold of the snapshots below the
// window start into the durable store's base segment, if the overlays
// there have grown to the store's fold ratio of the base; a smaller
// backlog is left for a later slide and no goroutine is started. Nor is
// one while a fold is still in flight: the store reports the backlog that
// fold is retiring until its manifest swap, and a second fold queued
// behind it would rewrite the base for the one slide between them.
func (w *Watcher) foldBehind(before int, sp *obs.Span) {
	backlog, due, err := w.persist.foldBacklog(before)
	if err != nil {
		w.noteCompactErr(err)
		return
	}
	sp.SetAttr(obs.Int("backlog_edges", backlog))
	obs.FoldBacklogEdges().Set(int64(backlog))
	if !due || !w.folding.CompareAndSwap(false, true) {
		return
	}
	w.bg.Add(1)
	go func(gs *GraphStore) {
		defer w.bg.Done()
		defer w.folding.Store(false)
		w.noteCompactErr(gs.CompactContext(w.bgCtx, before))
	}(w.persist)
}

// noteCompactErr keeps a real slide-compaction failure for WaitCompaction.
func (w *Watcher) noteCompactErr(err error) {
	if err == nil || errors.Is(err, context.Canceled) {
		return
	}
	w.compactErrMu.Lock()
	w.lastCompactErr = err
	w.compactErrMu.Unlock()
}

// Run runs the request's query over the maintained window with its
// strategy. The request's Window is ignored — the watcher's maintained
// window is the whole point — and only the CommonGraph strategies apply;
// KickStarter would stream from the store directly. The context cancels
// the evaluation at schedule-edge boundaries, like EvolvingGraph.Run.
func (w *Watcher) Run(ctx context.Context, req Request) (*Result, error) {
	// Snapshot the representation under the read lock; it is immutable,
	// so the evaluation itself runs lock-free even while maintenance
	// swaps in a newer window.
	w.mu.RLock()
	rep := w.m.Rep()
	w.mu.RUnlock()
	req.Window = Window{From: rep.Window.From, To: rep.Window.To}
	return w.g.run(ctx, req, rep)
}

// MetricsServer is a running metrics/ops endpoint started by
// Watcher.ServeMetrics or Follower.ServeOps. Close shuts it down,
// severing idle connections too (the server carries read-header and idle
// timeouts, so a stalled client can neither pin a connection forever nor
// keep Close from returning).
type MetricsServer struct {
	srv *http.Server
	ln  net.Listener
	ops *obs.OpsMux

	// stopRuntime releases this server's reference on the process
	// runtime-metrics collector (refcounted: the sampling goroutine stops
	// when the last ops server closes).
	stopRuntime func()
	closeOnce   sync.Once
	closeErr    error
}

// Addr returns the server's bound address (useful with ":0").
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// URL returns the metrics endpoint URL.
func (m *MetricsServer) URL() string { return "http://" + m.Addr() + "/metrics" }

// Close stops the server immediately, closing the listener and every
// accepted connection, idle ones included, and releases its reference on
// the runtime-metrics collector. Idempotent.
func (m *MetricsServer) Close() error {
	m.closeOnce.Do(func() {
		m.closeErr = m.srv.Close()
		if m.stopRuntime != nil {
			m.stopRuntime()
		}
	})
	return m.closeErr
}

// SetReadiness replaces the /readyz probe. The default always reports
// ready; a replication follower installs its staleness-budget check.
func (m *MetricsServer) SetReadiness(f func() (ok bool, detail string)) {
	m.ops.SetReadiness(f)
}

// newOpsServer builds the shared HTTP ops surface — obs.NewOpsMux's
// /metrics (process registry, with runtime/metrics gauges refreshed by a
// background sampler while any ops server runs), /healthz, /readyz, and
// the /debug forensic endpoints — plus whatever routes the owner adds.
// The http.Server carries conservative timeouts so a client that never
// finishes its request headers, or parks an idle keep-alive connection,
// cannot hold resources indefinitely.
func newOpsServer(addr string, configure func(mux *obs.OpsMux, m *MetricsServer)) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("commongraph: ops listener: %w", err)
	}
	m := &MetricsServer{ln: ln, ops: obs.NewOpsMux(), stopRuntime: obs.StartRuntimeCollector(0)}
	if configure != nil {
		configure(m.ops, m)
	}
	m.srv = &http.Server{
		Handler:           m.ops,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	//cgvet:ignore goleak -- serves until MetricsServer.Close shuts the listener; Serve then returns ErrServerClosed and the goroutine exits
	go m.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return m, nil
}

// ServeMetrics starts an HTTP server on addr (e.g. ":9090", or ":0" for
// an ephemeral port) exposing the watcher's observability surface:
//
//	/metrics  process-wide metric registry — Prometheus text exposition
//	          by default, expvar-style JSON with ?format=json
//	/healthz  liveness probe (always 200 while serving)
//	/readyz   readiness probe (200 by default; see SetReadiness)
//	/window   the watcher's current window as JSON
//	          {"from":F,"to":T,"width":W,"common_edges":E}
//	/debug/flightrecorder  completed root spans retained in the flight ring
//	/debug/slowlog         slow-query reservoir samples, by strategy
//	/debug/trace?id=<hex>  one retained trace as Chrome trace JSON
//
// The registry is process-wide (every watcher, evaluation, ingest batcher
// and fault injection in the process feeds it); /window is this watcher's
// live state. The server runs until Close.
func (w *Watcher) ServeMetrics(addr string) (*MetricsServer, error) {
	return newOpsServer(addr, func(mux *obs.OpsMux, _ *MetricsServer) {
		mux.HandleFunc("/window", func(rw http.ResponseWriter, _ *http.Request) {
			from, to := w.Window()
			rw.Header().Set("Content-Type", "application/json")
			json.NewEncoder(rw).Encode(map[string]int{
				"from":         from,
				"to":           to,
				"width":        to - from + 1,
				"common_edges": w.CommonEdges(),
			})
		})
	})
}

// RunMulti evaluates several queries over the same window with
// Work-Sharing. Every query is validated before any runs; each then runs
// through Run's envelope (span, counters, slow log, incident), and the
// window's representation and schedule, memoized per window, are built by
// the first and reused by the rest. The context cancels the evaluation
// like Run's.
func (g *EvolvingGraph) RunMulti(ctx context.Context, queries []Query, win Window, opt Options) ([]*Result, error) {
	for i, q := range queries {
		if q.Algorithm == nil {
			return nil, fmt.Errorf("commongraph: query %d has no algorithm", i)
		}
		if err := g.checkSource(q.Source); err != nil {
			return nil, err
		}
	}
	out := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := g.run(ctx, Request{Query: q, Window: win, Strategy: WorkSharing, Options: opt}, nil)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// convertResult maps a core result into the public shape.
func convertResult(inner *core.Result, from int, strategy Strategy) *Result {
	res := &Result{
		Strategy:           strategy,
		AdditionsProcessed: inner.AdditionsProcessed,
		EdgesEvaluated:     inner.Work.EdgesPushed,
		MaxHopTime:         inner.MaxHopTime,
		Degraded:           inner.Degraded,
		Timings: Timings{
			InitialCompute: inner.Cost.InitialCompute,
			IncrementalAdd: inner.Cost.IncrementalAdd,
			Mutation:       inner.Cost.OverlayBuild,
			StateClone:     inner.Cost.StateClone,
			Total:          inner.Cost.Total(),
		},
	}
	if len(inner.SnapshotErrors) > 0 {
		res.SnapshotErrors = make(map[int]error, len(inner.SnapshotErrors))
		for k, e := range inner.SnapshotErrors {
			res.SnapshotErrors[from+k] = e
		}
	}
	for _, s := range inner.Snapshots {
		res.Snapshots = append(res.Snapshots, SnapshotResult{
			Index:    from + s.Index,
			Reached:  s.Reached,
			Checksum: s.Checksum,
			Values:   s.Values,
		})
	}
	return res
}
