package commongraph

import (
	"context"
	"slices"
	"sync"
	"testing"

	"commongraph/internal/engine"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

// TestRecycledStatesAreNotShared: common, hop and leaf states come from,
// and go back to, one process-wide free list, so concurrent evaluations —
// mixed algorithms, all six strategies, with and without a PlanCache, two
// graphs of different vertex counts — keep handing each other storage.
// With a PlanCache the common state is the cache's, copied into recycled
// storage and never recycled itself. Every state is scribbled over at its
// release: anyone still reading one afterwards, or two evaluations holding
// the same one, shows up as a snapshot that differs from the reference
// (run with -race).
func TestRecycledStatesAreNotShared(t *testing.T) {
	engine.ScribbleOnRecycle.Store(true)
	defer engine.ScribbleOnRecycle.Store(false)

	type fixture struct {
		g    *EvolvingGraph
		n    int
		plan *PlanCache
		refs map[string][][]Value // algorithm name -> snapshot -> values
	}
	const transitions = 5
	build := func(scale, edges int, seed uint64) *fixture {
		n, base := gen.RMAT(gen.DefaultRMAT(scale, edges, seed))
		trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: transitions, Additions: 40, Deletions: 40, Seed: seed + 7})
		if err != nil {
			t.Fatal(err)
		}
		f := &fixture{g: New(n, base), n: n, plan: NewPlanCache(), refs: map[string][][]Value{}}
		for _, tr := range trs {
			if _, err := f.g.ApplyUpdates(tr.Additions, tr.Deletions); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range Algorithms() {
			for k := 0; k <= transitions; k++ {
				snap, err := f.g.Snapshot(k)
				if err != nil {
					t.Fatal(err)
				}
				f.refs[a.Name()] = append(f.refs[a.Name()], engine.Reference(graph.NewPair(n, snap), a, 0))
			}
		}
		return f
	}
	fixtures := []*fixture{build(8, 1000, 431), build(10, 5000, 433)}

	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, f := range fixtures {
			for _, plan := range []*PlanCache{nil, f.plan} {
				for _, s := range Strategies() {
					for _, a := range Algorithms() {
						wg.Add(1)
						go func() {
							defer wg.Done()
							res, err := f.g.Run(context.Background(), Request{
								Query:    Query{Algorithm: a, Source: 0},
								Window:   Window{From: 0, To: transitions},
								Strategy: s,
								Options:  Options{KeepValues: true, Plan: plan},
							})
							if err != nil {
								t.Errorf("n=%d %v %s plan=%v: %v", f.n, s, a.Name(), plan != nil, err)
								return
							}
							for k, snap := range res.Snapshots {
								if !slices.Equal(snap.Values, f.refs[a.Name()][k]) {
									t.Errorf("n=%d %v %s plan=%v: snapshot %d differs from the reference", f.n, s, a.Name(), plan != nil, k)
									return
								}
							}
						}()
					}
				}
			}
		}
	}
	wg.Wait()
}
