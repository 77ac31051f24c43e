package bench

import (
	"runtime"
	"time"

	"commongraph/internal/algo"
	"commongraph/internal/core"
	"commongraph/internal/engine"
	"commongraph/internal/graph"
	"commongraph/internal/kickstarter"
)

// strategyTimes holds one (workload, window, algorithm) measurement of the
// three systems. All totals include the initial from-scratch computation
// (the paper treats the common-graph and first-snapshot solves as
// comparable); representation construction (BuildRep, and the Triangular
// Grid and Steiner schedule memoized on it) is excluded for CommonGraph
// just as graph loading is excluded for KickStarter. Overlay and label
// construction is included (Cost.OverlayBuild): each repeat runs cold.
type strategyTimes struct {
	KS          time.Duration
	KSCost      kickstarter.CostBreakdown
	DH          time.Duration
	DHCost      core.Cost
	WS          time.Duration
	WSCost      core.Cost
	DHAdditions int64
	WSAdditions int64
	MaxHop      time.Duration
}

// runKS streams the window through the KickStarter baseline.
func runKS(w *Workload, from, to int, a algo.Algorithm, src graph.VertexID) (kickstarter.CostBreakdown, error) {
	first, err := w.Store.GetVersion(from)
	if err != nil {
		return kickstarter.CostBreakdown{}, err
	}
	// The baseline runs level-synchronous throughout: KickStarter is built
	// on Ligra's bulk-synchronous edgeMap. The adaptive sync/async
	// scheduler is part of the CommonGraph system (§4.3), not the baseline.
	sys := kickstarter.New(w.N, first, a, src, engine.Options{Mode: engine.Sync})
	for t := from; t < to; t++ {
		if err := sys.ApplyTransition(w.Store.Additions(t).Edges(), w.Store.Deletions(t).Edges()); err != nil {
			return kickstarter.CostBreakdown{}, err
		}
	}
	return sys.Cost, nil
}

// measureRepeats is how many times each strategy is measured; the fastest
// run is kept — the standard way to strip GC and scheduler noise from
// single-shot macro measurements.
const measureRepeats = 2

// runAll measures KickStarter, Direct-Hop and Work-Sharing on one window.
// runtime.GC runs between measurements so one strategy's garbage is not
// collected on another's clock.
func runAll(w *Workload, from, to int, a algo.Algorithm, src graph.VertexID, parallel bool) (*strategyTimes, error) {
	out := &strategyTimes{}

	for r := 0; r < measureRepeats; r++ {
		runtime.GC()
		ksCost, err := runKS(w, from, to, a, src)
		if err != nil {
			return nil, err
		}
		if r == 0 || ksCost.Total() < out.KS {
			out.KSCost = ksCost
			out.KS = ksCost.Total()
		}
	}

	// Every measured repeat gets a representation of its own: overlays,
	// labels and the schedule are memoized on the rep, so on a reused one
	// the kept-fastest repeat would be a warm one and Fig. 11's overlay
	// phase would vanish from it.
	win := core.Window{Store: w.Store, From: from, To: to}
	cfg := core.Config{Algo: a, Source: src}

	for r := 0; r < measureRepeats; r++ {
		rep, err := core.BuildRep(win)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		dh, err := core.DirectHop(rep, cfg)
		if err != nil {
			return nil, err
		}
		if r == 0 || dh.Cost.Total() < out.DH {
			out.DHCost = dh.Cost
			out.DH = dh.Cost.Total()
			out.MaxHop = dh.MaxHopTime
		}
		out.DHAdditions = dh.AdditionsProcessed
	}

	for r := 0; r < measureRepeats; r++ {
		rep, err := core.BuildRep(win)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		ws, _, err := core.EvaluateWorkSharing(rep, cfg)
		if err != nil {
			return nil, err
		}
		if r == 0 || ws.Cost.Total() < out.WS {
			out.WSCost = ws.Cost
			out.WS = ws.Cost.Total()
		}
		out.WSAdditions = ws.AdditionsProcessed
	}

	// MaxHop comes from the sequential Direct-Hop loop: each hop is timed
	// in isolation there, so the maximum estimates the one-core-per-
	// snapshot wall time without hops inflating each other (the `parallel`
	// flag is kept for callers that want the concurrent execution itself).
	if parallel {
		rep, err := core.BuildRep(win)
		if err != nil {
			return nil, err
		}
		if _, err := core.DirectHopParallel(rep, cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// algoBFS avoids an import cycle in tests needing a default algorithm.
func algoBFS() algo.Algorithm { return algo.BFS{} }
