package core

import (
	"context"
	"sync"
	"testing"

	"commongraph/internal/algo"
)

// TestWorkSharingParallelRaceStress is the CI race gate for the §5
// parallel executor: a wide window (W = 11 ≥ 8) evaluated with
// Parallelism 1, 2, and unbounded — all three variants running
// concurrently against the same shared representation — must reproduce
// the sequential WorkSharing result exactly. Run under -race this
// exercises the subtree fan-out, the shared-Result mutex, and the
// read-only sharing of the base CSR, labels, and schedule.
func TestWorkSharingParallelRaceStress(t *testing.T) {
	s, n := randomStore(311, 10, 60, 60)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 10})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTG(rep.Window)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSchedule(tg, SteinerGreedy(tg))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []algo.Algorithm{algo.BFS{}, algo.SSSP{}, algo.SSWP{}} {
		cfg := Config{Algo: a, Source: 0, KeepValues: true}
		seq, err := WorkSharing(rep, tg, sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// All parallelism levels at once: the variants share rep, tg,
		// labels, and sched, so any illegal mutation of shared state
		// trips the race detector here.
		results := make([]*Result, 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for i, par := range []int{1, 2, 0} {
			wg.Add(1)
			go func(i, par int) {
				defer wg.Done()
				c := cfg
				c.Parallelism = par
				results[i], errs[i] = WorkSharingParallel(rep, tg, sched, c)
			}(i, par)
		}
		wg.Wait()
		for i, par := range []int{1, 2, 0} {
			if errs[i] != nil {
				t.Fatalf("%s parallelism=%d: %v", a.Name(), par, errs[i])
			}
			got := results[i]
			if len(got.Snapshots) != len(seq.Snapshots) {
				t.Fatalf("%s: snapshot count %d vs %d", a.Name(), len(got.Snapshots), len(seq.Snapshots))
			}
			for k := range seq.Snapshots {
				if seq.Snapshots[k].Checksum != got.Snapshots[k].Checksum {
					t.Fatalf("%s parallelism=%d: snapshot %d checksum differs", a.Name(), par, k)
				}
				for v := 0; v < n; v++ {
					if seq.Snapshots[k].Values[v] != got.Snapshots[k].Values[v] {
						t.Fatalf("%s parallelism=%d: snapshot %d vertex %d differs",
							a.Name(), par, k, v)
					}
				}
			}
		}
	}
}

// TestEvaluateManyRaceStress runs several EvaluateMany batches
// concurrently over one shared representation and checks every query
// against its own sequential WorkSharing evaluation.
func TestEvaluateManyRaceStress(t *testing.T) {
	s, n := randomStore(313, 8, 50, 50)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 8})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Config{
		{Algo: algo.BFS{}, Source: 0, KeepValues: true},
		{Algo: algo.SSSP{}, Source: 3, KeepValues: true},
		{Algo: algo.SSWP{}, Source: 7, KeepValues: true},
	}
	const rounds = 3
	all := make([][]*Result, rounds)
	errs := make([]error, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tg, sched, _, err := rep.Schedule(context.Background())
			if err != nil {
				errs[r] = err
				return
			}
			all[r], errs[r] = EvaluateMany(rep, tg, sched, queries)
		}(r)
	}
	wg.Wait()

	tg, err := BuildTG(rep.Window)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSchedule(tg, SteinerGreedy(tg))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if errs[r] != nil {
			t.Fatalf("round %d: %v", r, errs[r])
		}
		for qi, q := range queries {
			seq, err := WorkSharing(rep, tg, sched, q)
			if err != nil {
				t.Fatal(err)
			}
			got := all[r][qi]
			for k := range seq.Snapshots {
				if seq.Snapshots[k].Checksum != got.Snapshots[k].Checksum {
					t.Fatalf("round %d query %d: snapshot %d checksum differs", r, qi, k)
				}
				for v := 0; v < n; v++ {
					if seq.Snapshots[k].Values[v] != got.Snapshots[k].Values[v] {
						t.Fatalf("round %d query %d: snapshot %d vertex %d differs", r, qi, k, v)
					}
				}
			}
		}
	}
}
