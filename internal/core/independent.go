package core

import (
	"time"

	"commongraph/internal/engine"
	"commongraph/internal/faults"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
)

// Independent evaluates the query on every snapshot of the window from
// scratch, each on its own freshly materialized graph — the
// "straightforward approach" of §1 that both streaming and CommonGraph
// improve on. It repeats all subcomputation common to the snapshots and
// pays a full graph construction per snapshot; it exists as the third
// comparison point and as a correctness oracle at scale.
func Independent(w Window, cfg Config) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	hops := obs.HopSeconds("independent")
	for k := 0; k < w.Width(); k++ {
		// Per-snapshot boundary: each from-scratch solve is this
		// strategy's schedule edge, so cancellation is observed here.
		if err := checkpoint(cfg.Ctx, faults.CoreEngineRun); err != nil {
			return nil, err
		}
		edges, err := w.Store.GetVersion(w.From + k)
		if err != nil {
			return nil, err
		}
		sp := cfg.Trace.StartChild("hop", obs.Int("snapshot", k))
		t0 := time.Now()
		// Graph construction is part of this strategy's cost: nothing is
		// shared between snapshots, including the representation.
		pair := graph.NewPair(w.Store.NumVertices(), edges)
		t1 := time.Now()
		res.Cost.OverlayBuild += t1.Sub(t0)

		st, stats := engine.Run(pair, cfg.Algo, cfg.Source, engine.Options{Span: sp})
		t2 := time.Now()
		res.Cost.InitialCompute += t2.Sub(t1)
		sp.End()
		hop := t2.Sub(t0)
		hops.Observe(hop)
		if hop > res.MaxHopTime {
			res.MaxHopTime = hop
		}
		res.Work.Add(stats)
		res.Snapshots = append(res.Snapshots, snapshotResult(k, st, cfg.KeepValues))
	}
	return res, nil
}
