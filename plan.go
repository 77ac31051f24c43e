package commongraph

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"commongraph/internal/core"
	"commongraph/internal/obs"
)

// maxCachedWindows bounds the window representations an EvolvingGraph
// keeps (least recently used first out, builds in flight never). A rep
// holds the window's whole common graph as a CSR, its batches and their
// overlays, so the bound is what keeps a graph queried over ever-new
// windows from growing without limit; past it, a query on an evicted
// window pays the construction again, as every query did before reps
// were kept.
const maxCachedWindows = 8

// repCache is the graph-owned, single-flight, bounded memo of window
// representations. A rep carries the rest of the window's plan on itself
// (core.Rep: leaf overlays, TG, schedule), so this one map is the whole
// plan cache.
//
// Entries never go stale: the snapshot store is append-only and windows
// are keyed by absolute snapshot indices, so ApplyUpdates only makes new
// windows reachable. A different store means a different EvolvingGraph
// (FromStore) and therefore an empty cache.
type repCache struct {
	mu      sync.Mutex
	clock   uint64
	entries map[Window]*repEntry
}

// repEntry is one representation, in flight until done closes.
type repEntry struct {
	done chan struct{}
	rep  *core.Rep
	err  error
	used uint64 // repCache.clock at the last lookup
}

// errBuildPanicked is what waiters see when the builder panics out of
// core.BuildRep; the builder's own goroutine carries the panic.
var errBuildPanicked = errors.New("commongraph: window representation construction panicked")

// get returns the representation of w, building it on first use while
// concurrent callers of the same window wait. hit reports that this call
// did not build. A failed build goes to everyone waiting on it and is
// then forgotten, so a later call tries again.
func (c *repCache) get(ctx context.Context, w core.Window) (rep *core.Rep, hit bool, err error) {
	key := Window{From: w.From, To: w.To}
	c.mu.Lock()
	c.clock++
	if e, ok := c.entries[key]; ok {
		e.used = c.clock
		c.mu.Unlock()
		if err := await(ctx, e.done); err != nil {
			return nil, true, err
		}
		return e.rep, true, e.err
	}
	e := &repEntry{done: make(chan struct{}), used: c.clock, err: errBuildPanicked}
	if c.entries == nil {
		c.entries = make(map[Window]*repEntry)
	}
	c.entries[key] = e
	evictLRU(c.entries, maxCachedWindows,
		func(e *repEntry) uint64 { return e.used },
		func(e *repEntry) bool { return isClosed(e.done) })
	c.mu.Unlock()
	defer func() {
		if e.err != nil {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.rep, e.err = core.BuildRep(w)
	return e.rep, false, e.err
}

// evictLRU deletes the least recently used idle entries of m until at
// most max remain. Entries that are not idle (a build or solve in flight,
// with callers waiting on it) are never deleted, so m can stay above max
// for as long as they last.
func evictLRU[K comparable, V any](m map[K]V, max int, used func(V) uint64, idle func(V) bool) {
	for len(m) > max {
		var (
			victim K
			oldest uint64
			found  bool
		)
		for k, v := range m {
			if u := used(v); idle(v) && (!found || u < oldest) {
				victim, oldest, found = k, u, true
			}
		}
		if !found {
			return
		}
		delete(m, victim)
	}
}

func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// await blocks until done closes or ctx (nil = never) is done.
func await(ctx context.Context, done <-chan struct{}) error {
	if ctx == nil {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("commongraph: cancelled waiting for shared evaluation: %w", ctx.Err())
	}
}

// rep returns the graph's cached representation of w. pc, when non-nil,
// is the PlanCache of the request the lookup serves (see countPlan).
func (g *EvolvingGraph) rep(ctx context.Context, w core.Window, pc *PlanCache) (*core.Rep, bool, error) {
	if err := w.Validate(); err != nil {
		return nil, false, err
	}
	rep, hit, err := g.reps.get(ctx, w)
	pc.countPlan("rep", hit)
	return rep, hit, err
}

// windowPlan resolves the part of an evaluation that depends on the
// window alone: the representation — held when the caller maintains one
// itself (a Watcher), else the graph's cached one — and, for the
// strategies that walk one, the Triangular Grid and schedule memoized on
// it. Whatever it has to construct is the "plan.build" span under parent;
// hit=true on the span means nothing was constructed.
func (g *EvolvingGraph) windowPlan(ctx context.Context, w core.Window, held *core.Rep, withSchedule bool, opt Options, parent *obs.Span) (rep *core.Rep, tg *core.TG, sched *core.Schedule, err error) {
	sp := parent.StartChild("plan.build")
	defer sp.End()
	rep, hit := held, true
	if rep == nil {
		if rep, hit, err = g.rep(ctx, w, opt.Plan); err != nil {
			return nil, nil, nil, err
		}
	}
	if withSchedule {
		var built bool
		tg, sched, built, err = rep.Schedule(ctx)
		opt.Plan.countPlan("sched", !built)
		if err != nil {
			return nil, nil, nil, err
		}
		hit = hit && !built
	}
	sp.SetAttr(obs.Bool("hit", hit))
	return rep, tg, sched, nil
}

// countPlan records one lookup of the window-plan memo (layer "rep" or
// "sched") on the commongraph_serve_plan_cache_total metric and, when the
// request carries a PlanCache, on that cache's Stats — the per-instance
// view of the lookups made on its behalf. pc may be nil.
func (pc *PlanCache) countPlan(layer string, hit bool) {
	event := layer + "-miss"
	if hit {
		event = layer + "-hit"
	}
	obs.ServePlanCache(event).Inc()
	if pc == nil {
		return
	}
	switch event {
	case "rep-hit":
		pc.stats.repHits.Add(1)
	case "rep-miss":
		pc.stats.repMisses.Add(1)
	case "sched-hit":
		pc.stats.schedHits.Add(1)
	case "sched-miss":
		pc.stats.schedMisses.Add(1)
	}
}
