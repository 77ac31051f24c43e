package kickstarter

import (
	"time"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
)

// CostBreakdown accumulates where a streaming run spends its time — the
// four phases of Figure 11 (incremental addition/deletion computation, and
// graph mutation for additions/deletions).
type CostBreakdown struct {
	MutateAdd         time.Duration
	MutateDelete      time.Duration
	IncrementalAdd    time.Duration
	IncrementalDelete time.Duration
	InitialCompute    time.Duration
}

// Total sums every phase including the initial from-scratch computation.
func (c CostBreakdown) Total() time.Duration {
	return c.MutateAdd + c.MutateDelete + c.IncrementalAdd + c.IncrementalDelete + c.InitialCompute
}

// StreamingTotal sums only the per-transition phases.
func (c CostBreakdown) StreamingTotal() time.Duration {
	return c.MutateAdd + c.MutateDelete + c.IncrementalAdd + c.IncrementalDelete
}

// Add accumulates another breakdown.
func (c *CostBreakdown) Add(o CostBreakdown) {
	c.MutateAdd += o.MutateAdd
	c.MutateDelete += o.MutateDelete
	c.IncrementalAdd += o.IncrementalAdd
	c.IncrementalDelete += o.IncrementalDelete
	c.InitialCompute += o.InitialCompute
}

// System is a KickStarter instance: one mutable graph version and the
// query state maintained against it. It is the paper's baseline: to visit
// n snapshots it streams n-1 transitions in sequence.
type System struct {
	g    *MutableGraph
	st   *engine.State
	Cost CostBreakdown
	Work engine.Stats
	// Trace, when non-nil, is the parent span every ApplyTransition hangs
	// a "kickstarter.transition" child off, with one grandchild per
	// Figure-11 phase. Nil disables tracing at pointer-test cost.
	Trace *obs.Span
}

// New builds the system on the initial snapshot and computes the query
// from scratch.
func New(n int, initial graph.EdgeList, a algo.Algorithm, src graph.VertexID, opt engine.Options) *System {
	s := &System{g: NewMutableGraph(n, initial)}
	t0 := time.Now()
	st, stats := engine.Run(s.g, a, src, opt)
	s.Cost.InitialCompute = time.Since(t0)
	s.st = st
	s.Work = stats
	return s
}

// State exposes the current query state (read-only between transitions).
func (s *System) State() *engine.State { return s.st }

// Graph exposes the current mutable graph.
func (s *System) Graph() *MutableGraph { return s.g }

// ApplyTransition streams one batch pair: mutate the graph in place
// (additions then deletions), then run incremental deletion (trimming)
// and incremental addition to restore the query fixpoint. Each phase's
// wall time is accumulated into Cost.
func (s *System) ApplyTransition(additions, deletions graph.EdgeList) error {
	sp := s.Trace.StartChild("kickstarter.transition")
	sp.SetAttr(obs.Int("additions", len(additions)), obs.Int("deletions", len(deletions)))
	defer sp.End()

	t0 := time.Now()
	ph := sp.StartChild("phase.mutate-add")
	s.g.AddBatch(additions)
	ph.End()
	t1 := time.Now()
	s.Cost.MutateAdd += t1.Sub(t0)
	ph = sp.StartChild("phase.mutate-delete")
	err := s.g.DeleteBatch(deletions)
	ph.End()
	if err != nil {
		return err
	}
	t2 := time.Now()
	s.Cost.MutateDelete += t2.Sub(t1)

	ph = sp.StartChild("phase.incremental-delete")
	delStats := IncrementalDelete(s.g, s.st, deletions)
	ph.End()
	t3 := time.Now()
	s.Cost.IncrementalDelete += t3.Sub(t2)

	ph = sp.StartChild("phase.incremental-add")
	addStats := engine.IncrementalAdd(s.g, s.st, additions, engine.Options{Span: ph})
	ph.End()
	s.Cost.IncrementalAdd += time.Since(t3)

	s.Work.Add(delStats)
	s.Work.Add(addStats)
	return nil
}
