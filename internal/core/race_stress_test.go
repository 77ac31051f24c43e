package core

import (
	"context"
	"sync"
	"testing"

	"commongraph/internal/algo"
)

// TestWorkSharingParallelRaceStress is the CI race gate for the §5
// parallel executor: a wide window (W = 11 ≥ 8) evaluated by both
// concurrent strategies under worker budgets 1, 2 and GOMAXPROCS — all
// six variants running concurrently against the same shared
// representation — must reproduce the sequential WorkSharing result
// exactly. Run under -race this exercises the unit fan-out, the
// shared-Result mutex, and the read-only sharing of the base CSR, the
// star, labels, and schedule.
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
		// All budgets and both strategies at once: the variants share rep,
		// tg, labels, sched and the star, so any illegal mutation of shared
		// state trips the race detector here.
		type variant struct {
			name   string
			budget int
			run    func(Config) (*Result, error)
		}
		var variants []variant
		for _, b := range []int{1, 2, 0} {
			variants = append(variants,
				variant{"WorkSharingParallel", b, func(c Config) (*Result, error) { return WorkSharingParallel(rep, tg, sched, c) }},
				variant{"DirectHopParallel", b, func(c Config) (*Result, error) { return DirectHopParallel(rep, c) }})
		}
		results := make([]*Result, len(variants))
		errs := make([]error, len(variants))
		var wg sync.WaitGroup
		for i, v := range variants {
			wg.Add(1)
			go func(i int, v variant) {
				defer wg.Done()
				c := cfg
				c.Workers = v.budget
				results[i], errs[i] = v.run(c)
			}(i, v)
		}
		wg.Wait()
		for i, v := range variants {
			if errs[i] != nil {
				t.Fatalf("%s %s budget=%d: %v", a.Name(), v.name, v.budget, errs[i])
			}
			got := results[i]
			if len(got.Snapshots) != len(seq.Snapshots) {
				t.Fatalf("%s: snapshot count %d vs %d", a.Name(), len(got.Snapshots), len(seq.Snapshots))
			}
			for k := range seq.Snapshots {
				if seq.Snapshots[k].Checksum != got.Snapshots[k].Checksum {
					t.Fatalf("%s %s budget=%d: snapshot %d checksum differs", a.Name(), v.name, v.budget, k)
				}
				for u := 0; u < n; u++ {
					if seq.Snapshots[k].Values[u] != got.Snapshots[k].Values[u] {
						t.Fatalf("%s %s budget=%d: snapshot %d vertex %d differs",
							a.Name(), v.name, v.budget, k, u)
					}
				}
			}
		}
	}
}

// TestEvaluateManyRaceStress runs several rounds of queries, every query
// of every round a concurrent WorkSharing call over one shared
// representation, and checks each against its own sequential evaluation
// on a separately built greedy schedule.
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
	errs := make([][]error, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		all[r], errs[r] = make([]*Result, len(queries)), make([]error, len(queries))
		for qi, q := range queries {
			wg.Add(1)
			go func(r, qi int, q Config) {
				defer wg.Done()
				tg, sched, _, err := rep.Schedule(context.Background())
				if err != nil {
					errs[r][qi] = err
					return
				}
				all[r][qi], errs[r][qi] = WorkSharing(rep, tg, sched, q)
			}(r, qi, q)
		}
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
		for qi, q := range queries {
			if errs[r][qi] != nil {
				t.Fatalf("round %d query %d: %v", r, qi, errs[r][qi])
			}
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
