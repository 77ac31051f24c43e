package commongraph

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"commongraph/internal/core"
	"commongraph/internal/engine"
	"commongraph/internal/graph"
)

// commonGraphStrategies are the strategies the PlanCache applies to.
func commonGraphStrategies() []Strategy {
	return []Strategy{DirectHop, DirectHopParallel, WorkSharing, WorkSharingParallel}
}

// referenceValues solves q on whole snapshot idx with the Bellman-Ford
// oracle.
func referenceValues(t *testing.T, g *EvolvingGraph, idx int, q Query) []Value {
	t.Helper()
	edges, err := g.Snapshot(idx)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Reference(graph.NewPair(g.NumVertices(), edges), q.Algorithm, q.Source)
}

// workLedger is the deterministic work of one evaluation that solves its
// own common graph: the engine's counters and the additions streamed.
type workLedger struct {
	work      engine.Stats
	additions int64
}

// ledgerOf evaluates req's window the way g.Run does, without a PlanCache,
// and returns the work it did. The public Result carries only part of
// it (EdgesEvaluated, AdditionsProcessed).
func ledgerOf(t *testing.T, g *EvolvingGraph, req Request) workLedger {
	t.Helper()
	w := core.Window{Store: g.store, From: req.Window.From, To: req.Window.To}
	inner, err := g.runCommonGraph(w, nil, req.Strategy, req.Options, req.Options.config(context.Background(), req.Query, nil))
	if err != nil {
		t.Fatal(err)
	}
	return workLedger{work: inner.Work, additions: inner.AdditionsProcessed}
}

// scheduleOf names the schedule a CommonGraph strategy walks: the
// sequential and the concurrent strategy of one schedule do the same work.
func scheduleOf(s Strategy) string {
	if s == WorkSharing || s == WorkSharingParallel {
		return "tree"
	}
	return "star"
}

// TestWarmPlanDifferential is the strategy differential over the window
// plan: for every CommonGraph strategy x worker budget x algorithm, with
// and without a PlanCache, the first Run on a window (which builds its
// plan) and the second and third (which reuse it) return bit-identical
// values, and those are engine.Reference's on every snapshot — reuse is an
// optimization, never an approximation. Every Run that solves its own
// common graph also does the same work: the engine's Work and the
// additions streamed are one ledger per schedule x algorithm x window,
// whatever the budget and whether the schedule's units run in order or
// side by side.
func TestWarmPlanDifferential(t *testing.T) {
	windows := []Window{{From: 0, To: 4}, {From: 1, To: 5}, {From: 2, To: 6}, {From: 0, To: 6}, {From: 3, To: 3}}
	type ledgerKey struct {
		schedule string
		algo     string
		window   Window
	}
	type ledgerSeen struct {
		ledger workLedger
		by     string
	}
	ledgers := map[ledgerKey]ledgerSeen{}
	for _, s := range commonGraphStrategies() {
		for _, budget := range []int{1, 2, 8} {
			// A graph of its own, so the first Run below is a cold one.
			g, _ := buildEvolving(t, 53, 6, 70, 70)
			pc := NewPlanCache()
			for _, a := range Algorithms() {
				q := Query{Algorithm: a, Source: 2}
				for _, w := range windows {
					name := fmt.Sprintf("%s %v workers=%d %v", a.Name(), s, budget, w)
					var first *Result
					for run, plan := range []*PlanCache{nil, nil, pc, pc} {
						req := Request{Query: q, Window: w, Strategy: s,
							Options: Options{Workers: budget, KeepValues: true, Plan: plan}}
						res, err := g.Run(context.Background(), req)
						if err != nil {
							t.Fatalf("%s run %d: %v", name, run, err)
						}
						if plan == nil {
							l := ledgerOf(t, g, req)
							if res.EdgesEvaluated != l.work.EdgesPushed || res.AdditionsProcessed != l.additions {
								t.Fatalf("%s run %d: Result counts (%d edges, %d additions), the evaluation's ledger %+v",
									name, run, res.EdgesEvaluated, res.AdditionsProcessed, l)
							}
							key := ledgerKey{scheduleOf(s), a.Name(), w}
							if seen, ok := ledgers[key]; !ok {
								ledgers[key] = ledgerSeen{l, name}
							} else if l != seen.ledger {
								t.Fatalf("%s run %d: work %+v, but %s did %+v", name, run, l, seen.by, seen.ledger)
							}
						}
						if first == nil {
							first = res
							for k, snap := range res.Snapshots {
								if want := referenceValues(t, g, w.From+k, q); !reflect.DeepEqual(snap.Values, want) {
									t.Fatalf("%s: snapshot %d differs from engine.Reference", name, w.From+k)
								}
							}
							continue
						}
						if !reflect.DeepEqual(res.Snapshots, first.Snapshots) {
							t.Fatalf("%s: run %d on the warm plan differs from the first", name, run)
						}
					}
				}
			}
			st := pc.Stats()
			if st.Solves == 0 || st.Shared == 0 {
				t.Fatalf("%v workers=%d: cache never engaged: %+v", s, budget, st)
			}
			if st.RepMisses != 0 || st.RepHits == 0 {
				t.Fatalf("%v workers=%d: every plan was warm by the time the cache was used, want hits only: %+v", s, budget, st)
			}
		}
	}
}

// TestPlanCacheSharedSolveOnce is the overlap acceptance test: N
// concurrent queries with overlapping (but distinct, staggered) windows,
// all announced before any solve starts, must do exactly ONE from-scratch
// common-graph solve between them — every other request shares or derives
// its state from the union solve.
func TestPlanCacheSharedSolveOnce(t *testing.T) {
	g, _ := buildEvolving(t, 59, 9, 80, 80)
	pc := NewPlanCache()
	q := Query{Algorithm: SSSP, Source: 1}
	windows := []Window{
		{From: 0, To: 4}, {From: 1, To: 5}, {From: 2, To: 6},
		{From: 3, To: 7}, {From: 4, To: 8}, {From: 0, To: 8},
		{From: 2, To: 5}, {From: 1, To: 7},
	}
	// Admission announces every window before any evaluation begins —
	// the serve layer's contract.
	releases := make([]func(), len(windows))
	for i, w := range windows {
		releases[i] = pc.Announce(w)
	}
	results := make([]*Result, len(windows))
	errs := make([]error, len(windows))
	var wg sync.WaitGroup
	for i, w := range windows {
		wg.Add(1)
		go func(i int, w Window) {
			defer wg.Done()
			defer releases[i]()
			results[i], errs[i] = g.Run(context.Background(), Request{
				Query: q, Window: w, Strategy: DirectHop,
				Options: Options{Plan: pc},
			})
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("window %v: %v", windows[i], err)
		}
	}
	st := pc.Stats()
	if st.Solves != 1 {
		t.Fatalf("want exactly 1 shared common-graph solve for %d overlapping queries, got %d (stats %+v)",
			len(windows), st.Solves, st)
	}
	if st.Derives+st.Shared < uint64(len(windows)-1) {
		t.Fatalf("remaining queries should share or derive: %+v", st)
	}
	// And the shared results must still be exact: re-run one window
	// without the PlanCache and compare.
	check, err := g.Run(context.Background(), Request{Query: q, Window: windows[2], Strategy: DirectHop})
	if err != nil {
		t.Fatal(err)
	}
	for i := range check.Snapshots {
		if results[2].Snapshots[i].Checksum != check.Snapshots[i].Checksum {
			t.Fatalf("snapshot %d: shared result diverges from the unshared one", i)
		}
	}
}

// TestPlanCacheExactReuse: identical repeated requests single-flight to
// one solve and then share the cached state.
func TestPlanCacheExactReuse(t *testing.T) {
	g, _ := buildEvolving(t, 61, 4, 50, 50)
	pc := NewPlanCache()
	req := Request{
		Query: Query{Algorithm: BFS, Source: 0}, Window: Window{From: 0, To: 4},
		Strategy: WorkSharing, Options: Options{Plan: pc},
	}
	for i := 0; i < 5; i++ {
		if _, err := g.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := pc.Stats()
	if st.Solves != 1 || st.Shared != 4 {
		t.Fatalf("want 1 solve + 4 shared, got %+v", st)
	}
	if st.SchedMisses != 1 || st.SchedHits != 4 {
		t.Fatalf("schedule should memoize: %+v", st)
	}
	if st.RepMisses != 1 || st.RepHits != 4 {
		t.Fatalf("rep should memoize: %+v", st)
	}
}

// TestPlanCacheWatcherPath: a Watcher evaluation with a PlanCache matches
// the watcher's own evaluation without one, a second watcher query over
// the same window shares the solve, and the maintained representation's
// schedule is built once for as long as the window stands still.
func TestPlanCacheWatcherPath(t *testing.T) {
	g, _ := buildEvolving(t, 67, 5, 60, 60)
	w, err := g.Watch(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	pc := NewPlanCache()
	q := Query{Algorithm: SSSP, Source: 0}
	plain, err := w.Run(context.Background(), Request{Query: q, Strategy: WorkSharingParallel})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		cached, err := w.Run(context.Background(), Request{
			Query: q, Strategy: WorkSharingParallel, Options: Options{Plan: pc},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := range cached.Snapshots {
			if cached.Snapshots[j].Checksum != plain.Snapshots[j].Checksum {
				t.Fatalf("run %d snapshot %d diverges under plan cache", i, j)
			}
		}
	}
	st := pc.Stats()
	if st.Solves != 1 || st.Shared != 1 {
		t.Fatalf("watcher path should share the solve: %+v", st)
	}
	// The run without the cache built the schedule; both runs with it hit.
	if st.SchedMisses != 0 || st.SchedHits != 2 || st.RepMisses+st.RepHits != 0 {
		t.Fatalf("watcher path should reuse its maintained rep's schedule: %+v", st)
	}
}

// TestPlanCacheStoreSwap: pointing the same cache at a different evolving
// graph must reset it (the follower re-bootstrap case), never serve
// states solved on the old store.
func TestPlanCacheStoreSwap(t *testing.T) {
	g1, _ := buildEvolving(t, 71, 3, 40, 40)
	g2, _ := buildEvolving(t, 73, 3, 40, 40)
	pc := NewPlanCache()
	req := Request{
		Query: Query{Algorithm: BFS, Source: 0}, Window: Window{From: 0, To: 3},
		Strategy: DirectHop, Options: Options{Plan: pc},
	}
	r1, err := g1.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g2.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	plain2, err := g2.Run(context.Background(), Request{Query: req.Query, Window: req.Window, Strategy: DirectHop})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r2.Snapshots {
		if r2.Snapshots[i].Checksum != plain2.Snapshots[i].Checksum {
			t.Fatalf("snapshot %d served from the wrong store's cache", i)
		}
	}
	st := pc.Stats()
	if st.Invalidations == 0 || st.Solves != 2 {
		t.Fatalf("store swap should reset the cache: %+v (r1 had %d snapshots)", st, len(r1.Snapshots))
	}
}

// TestPlanCacheWidenTransitive: the announced-window union is transitive —
// a chain of pairwise-overlapping windows folds into one solve even though
// the endpoints do not overlap each other.
func TestPlanCacheWidenTransitive(t *testing.T) {
	got := widen(Window{From: 0, To: 3}, map[Window]int{
		{From: 2, To: 5}: 1,
		{From: 5, To: 8}: 1,
		{From: 9, To: 9}: 1, // disjoint from the chain: must not widen
	})
	if got != (Window{From: 0, To: 8}) {
		t.Fatalf("widen = %+v, want [0,8]", got)
	}
}

// TestPlanCacheGroupsBounded: every distinct (algorithm, source) used to
// leave a group with a solved state behind for good. 10 000 never-repeated
// sources through one cache must retain a bounded number of states.
func TestPlanCacheGroupsBounded(t *testing.T) {
	g := New(10_000, []Edge{{Src: 0, Dst: 1, W: 1}})
	if _, err := g.ApplyUpdates([]Edge{{Src: 1, Dst: 2, W: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	pc := NewPlanCache()
	for src := 0; src < 10_000; src++ {
		_, err := g.Run(context.Background(), Request{
			Query: Query{Algorithm: BFS, Source: VertexID(src)}, Window: Window{From: 0, To: 1},
			Strategy: DirectHop, Options: Options{Plan: pc},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pc.mu.Lock()
	groups, states := len(pc.groups), 0
	for _, grp := range pc.groups {
		states += len(grp.entries)
	}
	pc.mu.Unlock()
	if groups > maxICGGroups || states > maxICGGroups*maxICGEntries {
		t.Fatalf("%d groups holding %d states retained, bounds are %d and %d",
			groups, states, maxICGGroups, maxICGGroups*maxICGEntries)
	}
	if st := pc.Stats(); st.Solves != 10_000 {
		t.Fatalf("want one solve per never-seen source, got %+v", st)
	}
}
