package bench

import (
	"fmt"
	"runtime"
	"time"

	"commongraph/internal/algo"
	"commongraph/internal/core"
)

// AblationSteiner compares the schedule costs (additions streamed), solver
// runtimes and schedule depths of the paper's greedy Algorithm 1 and the
// exact interval DP — the solver every evaluation uses — against the
// no-sharing Direct-Hop schedule, across window widths. Depth is the most
// schedule edges from the common graph to a snapshot: what the overlay
// stacks pay for.
func AblationSteiner(p Params) (*Table, error) {
	t := &Table{
		ID:    "Ablation A1",
		Title: "Steiner solver comparison: schedule cost (additions), solver time and schedule depth",
		Header: []string{"Snapshots", "Direct-Hop", "Greedy", "Greedy ms",
			"IntervalDP", "DP ms", "Depth greedy/DP"},
	}
	half := p.Batch(75_000) / 2
	maxSnaps := p.Snapshots
	w, err := BuildWorkload("LJ-sim", p, maxSnaps-1, half, half)
	if err != nil {
		return nil, err
	}
	step := maxSnaps / 5
	if step < 1 {
		step = 1
	}
	// Milliseconds: the exact solver finishes under the 0.1 ms secs resolves.
	millis := func(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()*1e3) }
	for snaps := step; snaps <= maxSnaps; snaps += step {
		tg, err := core.BuildTG(core.Window{Store: w.Store, From: 0, To: snaps - 1})
		if err != nil {
			return nil, err
		}
		direct := core.DirectHopSchedule(tg)

		t0 := time.Now()
		greedy := core.SteinerGreedy(tg)
		greedyTime := time.Since(t0)

		t1 := time.Now()
		dp := core.SteinerIntervalDP(tg)
		dpTime := time.Since(t1)

		greedySched, err := core.NewSchedule(tg, greedy)
		if err != nil {
			return nil, err
		}
		dpSched, err := core.NewSchedule(tg, dp)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", snaps),
			fmt.Sprintf("%d", direct.Cost),
			fmt.Sprintf("%d", greedy.Cost), millis(greedyTime),
			fmt.Sprintf("%d", dp.Cost), millis(dpTime),
			fmt.Sprintf("%d/%d", greedySched.Depth(), dpSched.Depth()))
	}
	return t, nil
}

// AblationRepresentation isolates the mutation-free representation's
// benefit: applying one transition's additions by in-place mutation
// (KickStarter-style) versus by overlay construction, across batch sizes.
func AblationRepresentation(p Params) (*Table, error) {
	t := &Table{
		ID:     "Ablation A3",
		Title:  "Graph update cost: in-place mutation vs overlay build (LJ-sim)",
		Header: []string{"Batch", "Mutate add", "Mutate delete", "Overlay build"},
	}
	for _, pb := range []int{75_000, 150_000, 300_000} {
		b := p.Batch(pb)
		w, err := BuildWorkload("LJ-sim", p, 1, b, b)
		if err != nil {
			return nil, err
		}
		adds := w.Store.Additions(0).Edges()
		dels := w.Store.Deletions(0).Edges()

		mg := newMutableFromWorkload(w)
		t0 := time.Now()
		mg.AddBatch(adds)
		mutAdd := time.Since(t0)
		t1 := time.Now()
		if err := mg.DeleteBatch(dels); err != nil {
			return nil, err
		}
		mutDel := time.Since(t1)

		rep, err := core.BuildRep(core.Window{Store: w.Store, From: 0, To: 1})
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		_ = rep.SnapshotGraph(1)
		overlay := time.Since(t2)

		t.AddRow(fmt.Sprintf("%d", b), secs(mutAdd), secs(mutDel), secs(overlay))
	}
	return t, nil
}

// AblationScale runs one Table 4 cell (LJ-sim, BFS and SSSP) at growing
// workload scales, showing how the CommonGraph speedups depend on scale:
// the baseline's trimming and mutation costs grow with graph size while
// addition streaming stays near-constant per edge, so the paper's factors
// emerge as the workload approaches the paper's operating point.
func AblationScale(p Params) (*Table, error) {
	t := &Table{
		ID:     "Ablation A4",
		Title:  "Speedup vs workload scale (LJ-sim)",
		Header: []string{"Scale", "Algo", "KickStarter", "Direct-Hop", "DH speedup", "Work-Sharing", "WS speedup"},
	}
	baseFactor := p.SizeFactor
	baseUpdate := p.UpdateScale
	for _, mult := range []float64{0.25, 0.5, 1} {
		sp := p
		sp.SizeFactor = baseFactor * mult
		sp.UpdateScale = baseUpdate * mult
		if sp.SizeFactor < 1 {
			sp.SizeFactor = 1
		}
		half := sp.Batch(75_000) / 2
		w, err := BuildWorkload("LJ-sim", sp, sp.Snapshots-1, half, half)
		if err != nil {
			return nil, err
		}
		for _, a := range []algo.Algorithm{algo.BFS{}, algo.SSSP{}} {
			st, err := runAll(w, 0, sp.Snapshots-1, a, sp.src(), false)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%gx", sp.SizeFactor), a.Name(),
				secs(st.KS), secs(st.DH), speedup(st.KS, st.DH),
				secs(st.WS), speedup(st.KS, st.WS))
		}
	}
	t.Notes = append(t.Notes,
		"factors generally improve with scale (noisy on shared hosts); the paper's 56-core, 70M-1.5B-edge testbed sits far beyond the right edge")
	return t, nil
}

// AblationBaselines lines up all evaluation strategies — including the
// naive Independent re-evaluation of §1 — on one workload, completing the
// paper's comparison story: Independent repeats all common subcomputation,
// KickStarter shares it but pays deletions and mutation, CommonGraph pays
// neither.
func AblationBaselines(p Params) (*Table, error) {
	t := &Table{
		ID:     "Ablation A5",
		Title:  "All strategies on one workload (TTW-sim)",
		Header: []string{"Algo", "Independent", "KickStarter", "Direct-Hop", "Work-Sharing", "DH vs Indep", "DH vs KS"},
	}
	half := p.Batch(75_000) / 2
	w, err := BuildWorkload("TTW-sim", p, p.Snapshots-1, half, half)
	if err != nil {
		return nil, err
	}
	for _, a := range []algo.Algorithm{algo.BFS{}, algo.SSSP{}} {
		st, err := runAll(w, 0, p.Snapshots-1, a, p.src(), false)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		ind, err := core.Independent(core.Window{Store: w.Store, From: 0, To: p.Snapshots - 1},
			core.Config{Algo: a, Source: p.src()})
		if err != nil {
			return nil, err
		}
		indTime := ind.Cost.Total()
		t.AddRow(a.Name(), secs(indTime), secs(st.KS), secs(st.DH), secs(st.WS),
			speedup(indTime, st.DH), speedup(st.KS, st.DH))
	}
	return t, nil
}
