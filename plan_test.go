package commongraph

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"commongraph/internal/graph"
	"commongraph/internal/snapshot"
)

// TestWindowPlanCacheBounded: more windows than capacity leave a bounded
// number of representations behind, and an evicted window is rebuilt on
// its next query with the same results.
func TestWindowPlanCacheBounded(t *testing.T) {
	g, _ := buildEvolving(t, 97, maxCachedWindows+4, 40, 40)
	pc := NewPlanCache() // its Stats count the builds
	run := func(from int) *Result {
		res, err := g.Run(context.Background(), Request{
			Query: Query{Algorithm: SSSP, Source: 1}, Window: Window{From: from, To: from + 2},
			Strategy: WorkSharing, Options: Options{KeepValues: true, Plan: pc},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(0)
	for from := 1; from < maxCachedWindows+3; from++ {
		run(from)
	}
	g.reps.mu.Lock()
	kept := len(g.reps.entries)
	_, oldestKept := g.reps.entries[Window{From: 0, To: 2}]
	g.reps.mu.Unlock()
	if kept != maxCachedWindows || oldestKept {
		t.Fatalf("%d representations kept (bound %d), least recently used still there: %v", kept, maxCachedWindows, oldestKept)
	}
	builds := pc.Stats().RepMisses
	again := run(0)
	if got := pc.Stats().RepMisses; got != builds+1 {
		t.Fatalf("evicted window: %d builds, want %d", got, builds+1)
	}
	if !reflect.DeepEqual(again.Snapshots, first.Snapshots) {
		t.Fatal("rebuilt window disagrees with its first evaluation")
	}
}

// TestWindowPlanSurvivesApplyUpdates: the store is append-only, so a plan
// cached before ApplyUpdates stays valid after it, and a window that only
// exists since the update evaluates correctly beside it.
func TestWindowPlanSurvivesApplyUpdates(t *testing.T) {
	g, _ := buildEvolving(t, 101, 4, 50, 50)
	q := Query{Algorithm: SSWP, Source: 3}
	pc := NewPlanCache()
	run := func(w Window) *Result {
		res, err := g.Run(context.Background(), Request{Query: q, Window: w, Strategy: WorkSharing,
			Options: Options{KeepValues: true, Plan: pc}})
		if err != nil {
			t.Fatal(err)
		}
		for k, snap := range res.Snapshots {
			if want := referenceValues(t, g, w.From+k, q); !reflect.DeepEqual(snap.Values, want) {
				t.Fatalf("window %v snapshot %d differs from engine.Reference", w, w.From+k)
			}
		}
		return res
	}
	old := Window{From: 0, To: 4}
	before := run(old)
	last, err := g.Snapshot(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ApplyUpdates([]Edge{{Src: 250, Dst: 251, W: 3}}, last[:20]); err != nil {
		t.Fatal(err)
	}
	run(Window{From: 1, To: 5})
	run(Window{From: 0, To: 5})
	builds := pc.Stats().RepMisses
	if after := run(old); !reflect.DeepEqual(after.Snapshots, before.Snapshots) {
		t.Fatal("cached window changed across ApplyUpdates")
	}
	if got := pc.Stats().RepMisses; got != builds {
		t.Fatalf("cached window was rebuilt after ApplyUpdates (%d builds, want %d)", got, builds)
	}
}

// TestWindowPlanBuildErrorNotCached: a stream that deletes an edge twice
// makes the Triangular Grid unbuildable. Every concurrent caller gets the
// error, and so does a later one after a fresh attempt — the failure is
// not cached — while the window's representation, which did build, is.
func TestWindowPlanBuildErrorNotCached(t *testing.T) {
	e := graph.Edge{Src: 0, Dst: 1, W: 1}
	store, err := snapshot.NewStoreFromTransitions(4, graph.EdgeList{e, {Src: 1, Dst: 2, W: 1}},
		[]graph.EdgeList{nil, nil}, []graph.EdgeList{{e}, {e}})
	if err != nil {
		t.Fatal(err)
	}
	g := FromStore(store)
	pc := NewPlanCache()
	req := Request{Query: Query{Algorithm: BFS, Source: 0}, Window: Window{From: 0, To: 2},
		Strategy: WorkSharing, Options: Options{Plan: pc}}
	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = g.Run(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "deletion of absent edge") {
			t.Fatalf("caller %d: err = %v, want the grid's deletion of absent edge", i, err)
		}
	}
	attempts := pc.Stats().SchedMisses
	if _, err := g.Run(context.Background(), req); err == nil || !strings.Contains(err.Error(), "deletion of absent edge") {
		t.Fatalf("later call: err = %v", err)
	}
	st := pc.Stats()
	if st.SchedMisses != attempts+1 || st.SchedHits > callers-1 {
		t.Fatalf("later call should have built again, not been handed a cached failure: %d attempts before, %+v", attempts, st)
	}
	if st.RepMisses != 1 {
		t.Fatalf("the representation builds fine and should be built once: %+v", st)
	}
}
