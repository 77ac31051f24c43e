package commongraph

import (
	"sync"
	"sync/atomic"

	"commongraph/internal/core"
	"commongraph/internal/engine"
	"commongraph/internal/obs"
	"commongraph/internal/snapshot"
)

// PlanCache shares solved common-graph states across concurrent queries
// over the same evolving graph — the cross-query generalization of the
// paper's cross-snapshot sharing. The Triangular-Grid schedule already
// shares common-graph work among a window's snapshots, and the
// EvolvingGraph already keeps each window's representation and schedule
// (DESIGN.md "Window plans"); a long-lived service also sees many
// *queries* whose windows overlap, and each would otherwise re-solve a
// nearly identical common graph from scratch. The cache memoizes ICG
// states: the solved common-graph fixpoint per (algorithm, source,
// window) — the intermediate common graph states of §3.2, lifted out of
// single evaluations.
//
// For any window U ⊇ w, C(U) ⊆ C(w) (the common graph over more
// snapshots is a subgraph), so a fixpoint solved on C(U) reaches the
// fixpoint on C(w) by streaming the additions C(w)\C(U) — the paper's
// §3.1 Direct-Hop argument with C(U) playing the common graph. Concurrent
// requests therefore single-flight one solve of the *union* of their
// announced windows (Announce) and each derives its own window's state
// with one cheap incremental pass: N overlapping queries do ~1x the
// common-graph work.
//
// Correctness across commits: the snapshot store is append-only and
// version indices are stable, so an entry keyed by an absolute window
// never goes stale — maintenance commits only make new windows reachable.
// The cache binds to one store pointer and resets itself if it sees
// another (a follower re-bootstrap swaps stores); Invalidate drops
// everything explicitly.
//
// Retention is bounded: at most maxICGGroups (algorithm, source) groups,
// least recently used first out, of at most maxICGEntries states each.
//
// All methods are safe for concurrent use. A PlanCache reaches an
// evaluation via Options.Plan.
type PlanCache struct {
	mu    sync.Mutex
	store *snapshot.Store

	clock     uint64
	groups    map[groupKey]*icgGroup
	announced map[Window]int

	stats planStats
}

// maxICGEntries bounds the solved states retained per (algorithm, source)
// group; past it the oldest solved entries are dropped (they can always be
// re-derived). In-flight entries are never evicted.
const maxICGEntries = 64

// maxICGGroups bounds the (algorithm, source) groups retained; past it
// the least recently used groups go, with every state they hold. A group
// with a solve or derivation in flight is never evicted. Without the
// bound a service queried from ever-new sources keeps at least one solved
// state (8 bytes per vertex) per source forever.
const maxICGGroups = 64

// groupKey identifies one family of ICG states. The worker budget is
// deliberately absent: the programs are monotonic, so the fixpoint is
// schedule-independent and any budget's solve is reusable by every other.
type groupKey struct {
	algo   string
	source VertexID
}

type icgGroup struct {
	entries []*icgEntry // insertion order; scanned for exact/containing hits
	used    uint64      // PlanCache.clock at the last lookup
}

// icgEntry is one solved (or in-flight) common-graph fixpoint. st is
// shared read-only among every evaluation that hits it — solveCommon
// clones before mutating.
type icgEntry struct {
	w    Window
	done chan struct{}
	st   *engine.State
	err  error
}

type planStats struct {
	solves, derives, shared    atomic.Uint64
	repHits, repMisses         atomic.Uint64
	schedHits, schedMisses     atomic.Uint64
	invalidations, announceNow atomic.Uint64
}

// PlanCacheStats is a point-in-time snapshot of the cache's counters —
// the per-instance view of the commongraph_serve_icg_evaluations_total and
// commongraph_serve_plan_cache_total process metrics.
type PlanCacheStats struct {
	// Solves counts from-scratch common-graph solves (each covering the
	// union of the announced overlapping windows at solve time). Derives
	// counts states reached from a containing window's state by one
	// incremental pass; Shared counts exact-window reuses.
	Solves, Derives, Shared uint64
	// RepHits/RepMisses and SchedHits/SchedMisses count the lookups of
	// the graph's window-plan memo (representation, schedule) made by
	// requests that carried this cache; a miss is a construction.
	RepHits, RepMisses     uint64
	SchedHits, SchedMisses uint64
	// Invalidations counts full resets (explicit or store-swap).
	Invalidations uint64
	// Announced is the number of windows currently announced by admitted
	// in-flight requests.
	Announced uint64
}

// NewPlanCache returns an empty cross-query plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{
		groups:    make(map[groupKey]*icgGroup),
		announced: make(map[Window]int),
	}
}

// Stats snapshots the cache's counters.
func (pc *PlanCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	announced := uint64(len(pc.announced))
	pc.mu.Unlock()
	return PlanCacheStats{
		Solves:        pc.stats.solves.Load(),
		Derives:       pc.stats.derives.Load(),
		Shared:        pc.stats.shared.Load(),
		RepHits:       pc.stats.repHits.Load(),
		RepMisses:     pc.stats.repMisses.Load(),
		SchedHits:     pc.stats.schedHits.Load(),
		SchedMisses:   pc.stats.schedMisses.Load(),
		Invalidations: pc.stats.invalidations.Load(),
		Announced:     announced,
	}
}

// Announce registers a window as requested-but-not-yet-solved and returns
// a release function the caller must run when its request finishes. The
// query service announces at admission, before the request waits for a
// worker: by the time the first of a batch of concurrent requests reaches
// its common-graph solve, every overlapping announced window widens that
// solve's union, so the batch converges on one solve instead of racing to
// N. Announce never blocks.
func (pc *PlanCache) Announce(w Window) (release func()) {
	pc.mu.Lock()
	pc.announced[w]++
	pc.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			pc.mu.Lock()
			if pc.announced[w]--; pc.announced[w] <= 0 {
				delete(pc.announced, w)
			}
			pc.mu.Unlock()
		})
	}
}

// Invalidate drops every memoized ICG state. Announced windows survive — they describe in-flight requests, not cached
// results.
func (pc *PlanCache) Invalidate() {
	pc.mu.Lock()
	pc.resetLocked()
	pc.mu.Unlock()
}

func (pc *PlanCache) resetLocked() {
	pc.groups = make(map[groupKey]*icgGroup)
	pc.stats.invalidations.Add(1)
}

// bindLocked resets the cache if w's store is not the one the cached
// entries were built from (first use, or a follower re-bootstrap swapping
// its mirrored store).
func (pc *PlanCache) bindLocked(s *snapshot.Store) {
	if pc.store != s {
		if pc.store != nil {
			pc.resetLocked()
		}
		pc.store = s
	}
}

// commonState returns the solved fixpoint of (cfg.Algo, cfg.Source) on
// rep's common graph, sharing work with every other query in flight. The
// returned state is owned by the cache and must be treated as read-only
// (solveCommon clones it). Lookup order:
//
//  1. exact window already solved or in flight → share it,
//  2. a containing window solved or in flight → derive by streaming the
//     additions C(w)\C(U) from its state,
//  3. otherwise solve from scratch — over the union of w with every
//     announced window transitively overlapping it, so concurrent
//     overlapping requests fold into this one solve and take path 1 or 2.
func (pc *PlanCache) commonState(g *EvolvingGraph, rep *core.Rep, cfg core.Config) (*engine.State, error) {
	win := Window{From: rep.Window.From, To: rep.Window.To}
	key := groupKey{algo: cfg.Algo.Name(), source: VertexID(cfg.Source)}

	pc.mu.Lock()
	pc.bindLocked(rep.Window.Store)
	grp := pc.groups[key]
	if grp == nil {
		grp = &icgGroup{}
		pc.groups[key] = grp
	}
	pc.clock++
	grp.used = pc.clock
	// Path 1: exact hit.
	if e := grp.find(win); e != nil {
		pc.mu.Unlock()
		if err := await(cfg.Ctx, e.done); err != nil {
			return nil, err
		}
		if e.err != nil {
			return nil, e.err
		}
		pc.stats.shared.Add(1)
		obs.ServeICG("shared").Inc()
		return e.st, nil
	}
	// Path 2: a containing window's state can be specialized to ours. Take
	// the narrowest container — its common graph is closest to ours, so
	// the derivation batch is smallest.
	if src := grp.findContaining(win); src != nil {
		dst := &icgEntry{w: win, done: make(chan struct{})}
		grp.entries = append(grp.entries, dst)
		pc.evictLocked(grp)
		pc.mu.Unlock()
		return pc.derive(g, dst, src, rep, cfg)
	}
	// Path 3: solve, widened to the union of announced overlapping
	// windows so the requests that announced them land on paths 1–2.
	union := widen(win, pc.announced)
	uEntry := &icgEntry{w: union, done: make(chan struct{})}
	grp.entries = append(grp.entries, uEntry)
	var dst *icgEntry
	if union != win {
		dst = &icgEntry{w: win, done: make(chan struct{})}
		grp.entries = append(grp.entries, dst)
	}
	pc.evictLocked(grp)
	pc.mu.Unlock()

	if err := pc.solve(g, uEntry, rep, cfg); err != nil {
		if dst != nil {
			pc.fail(dst, err)
		}
		return nil, err
	}
	if dst == nil {
		return uEntry.st, nil
	}
	return pc.derive(g, dst, uEntry, rep, cfg)
}

// evictLocked applies both retention bounds after grp gained an entry:
// grp's own entry cap, then the group cap.
func (pc *PlanCache) evictLocked(grp *icgGroup) {
	grp.evict()
	evictLRU(pc.groups, maxICGGroups,
		func(g *icgGroup) uint64 { return g.used },
		func(g *icgGroup) bool {
			for _, e := range g.entries {
				if !isClosed(e.done) {
					return false
				}
			}
			return true
		})
}

// solve runs the from-scratch fixpoint on the common graph of e.w and
// publishes it. Failures unpublish the entry so later requests retry.
func (pc *PlanCache) solve(g *EvolvingGraph, e *icgEntry, rep *core.Rep, cfg core.Config) error {
	defer close(e.done)
	solveRep := rep
	if e.w != (Window{From: rep.Window.From, To: rep.Window.To}) {
		var err error
		solveRep, _, err = g.rep(cfg.Ctx, core.Window{Store: rep.Window.Store, From: e.w.From, To: e.w.To}, pc)
		if err != nil {
			e.err = err
			pc.unpublish(e)
			return err
		}
	}
	sp := cfg.Trace.StartChild("icg.solve",
		obs.Int("from", e.w.From), obs.Int("to", e.w.To))
	e.st, _ = engine.Run(solveRep.Base, cfg.Algo, cfg.Source, engine.Options{Span: sp})
	sp.End()
	pc.stats.solves.Add(1)
	obs.ServeICG("solve").Inc()
	return nil
}

// derive specializes src's fixpoint (on C(src.w), src.w ⊇ dst.w) to
// dst.w's common graph by streaming the additions C(dst.w)\C(src.w) —
// one Direct-Hop over the interval containment instead of a full solve.
func (pc *PlanCache) derive(g *EvolvingGraph, dst, src *icgEntry, rep *core.Rep, cfg core.Config) (*engine.State, error) {
	if err := await(cfg.Ctx, src.done); err != nil {
		pc.fail(dst, err)
		return nil, err
	}
	if src.err != nil {
		pc.fail(dst, src.err)
		return nil, src.err
	}
	srcRep, _, err := g.rep(cfg.Ctx, core.Window{Store: rep.Window.Store, From: src.w.From, To: src.w.To}, pc)
	if err != nil {
		pc.fail(dst, err)
		return nil, err
	}
	sp := cfg.Trace.StartChild("icg.derive",
		obs.Int("from", dst.w.From), obs.Int("to", dst.w.To),
		obs.Int("src_from", src.w.From), obs.Int("src_to", src.w.To))
	batch := srcRep.CommonWithin(dst.w.From-src.w.From, dst.w.To-src.w.From)
	st := src.st.Clone()
	engine.IncrementalAdd(rep.Base, st, batch, engine.Options{Span: sp})
	sp.SetAttr(obs.Int("batch", len(batch)))
	sp.End()
	dst.st = st
	close(dst.done)
	pc.stats.derives.Add(1)
	obs.ServeICG("derive").Inc()
	return st, nil
}

// fail publishes an error on a pre-registered entry and unpublishes it so
// later requests retry instead of caching the failure.
func (pc *PlanCache) fail(e *icgEntry, err error) {
	e.err = err
	pc.unpublish(e)
	close(e.done)
}

// unpublish removes a failed entry from its group so later requests retry
// instead of caching the failure.
func (pc *PlanCache) unpublish(e *icgEntry) {
	pc.mu.Lock()
	for _, grp := range pc.groups {
		for i, g := range grp.entries {
			if g == e {
				grp.entries = append(grp.entries[:i], grp.entries[i+1:]...)
				pc.mu.Unlock()
				return
			}
		}
	}
	pc.mu.Unlock()
}

func (g *icgGroup) find(w Window) *icgEntry {
	for _, e := range g.entries {
		if e.w == w {
			return e
		}
	}
	return nil
}

// findContaining returns the narrowest entry whose window contains w.
func (g *icgGroup) findContaining(w Window) *icgEntry {
	var best *icgEntry
	for _, e := range g.entries {
		if e.w.From <= w.From && e.w.To >= w.To {
			if best == nil || e.w.Width() < best.w.Width() {
				best = e
			}
		}
	}
	return best
}

// evict drops the oldest solved entries past the per-group cap; in-flight
// entries (channel still open) are kept.
func (g *icgGroup) evict() {
	if len(g.entries) <= maxICGEntries {
		return
	}
	kept := g.entries[:0]
	drop := len(g.entries) - maxICGEntries
	for _, e := range g.entries {
		if drop > 0 && isClosed(e.done) {
			drop--
			continue
		}
		kept = append(kept, e)
	}
	g.entries = kept
}

// widen unions w with every announced window transitively overlapping it.
func widen(w Window, announced map[Window]int) Window {
	u := w
	for changed := true; changed; {
		changed = false
		for a := range announced {
			if a.From <= u.To && a.To >= u.From && (a.From < u.From || a.To > u.To) {
				if a.From < u.From {
					u.From = a.From
				}
				if a.To > u.To {
					u.To = a.To
				}
				changed = true
			}
		}
	}
	return u
}
