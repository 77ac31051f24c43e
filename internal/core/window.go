// Package core implements the paper's contribution: the CommonGraph
// representation of an evolving-graph window, the Direct-Hop evaluation
// schedule (§3.1), the Triangular Grid with Steiner-tree work sharing
// (§3.2, Algorithm 1), and the mutation-free evaluators built on overlay
// graphs (§4).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"commongraph/internal/delta"
	"commongraph/internal/graph"
	"commongraph/internal/snapshot"
)

// Window designates the snapshot range [From, To] (inclusive) of an
// evolving-graph store that a query targets.
type Window struct {
	Store *snapshot.Store
	From  int
	To    int
}

// Width returns the number of snapshots in the window.
func (w Window) Width() int { return w.To - w.From + 1 }

// Validate checks the window against its store.
func (w Window) Validate() error {
	if w.Store == nil {
		return fmt.Errorf("core: window has no store")
	}
	if w.From < 0 || w.To >= w.Store.NumVersions() || w.From > w.To {
		return fmt.Errorf("core: window [%d,%d] invalid for store with %d versions",
			w.From, w.To, w.Store.NumVersions())
	}
	return nil
}

// additions and deletions return the batch of window-relative transition t
// (snapshot From+t → From+t+1).
func (w Window) additions(t int) graph.EdgeList { return w.Store.Additions(w.From + t).Edges() }
func (w Window) deletions(t int) graph.EdgeList { return w.Store.Deletions(w.From + t).Edges() }

// Rep is the CommonGraph representation of a window: the common graph
// (edges present in every snapshot of the window) as an immutable CSR
// pair, plus one addition batch per snapshot that turns the common graph
// into that snapshot. Reaching any snapshot requires additions only —
// the paper's deletion-to-addition conversion.
//
// A Rep is also where the window's plan lives. Everything an evaluation
// needs that is a pure function of the window — the per-snapshot leaf
// overlays and the star over them, the Triangular Grid and the schedule
// with its labels and overlays — is built on first use, published once
// and then shared read-only by every later evaluation of the rep,
// concurrent ones included.
type Rep struct {
	Window Window
	N      int
	// Common is the canonical common edge set E_c as BuildRep derives it.
	// It is nil in a Rep that MaintainedRep published: a maintained common
	// graph is patched row by row and never listed, so Base alone holds it
	// (Base.Out.Edges() lists it, Base.NumEdges() counts it).
	Common graph.EdgeList
	// Base is E_c in traversal form; it is never mutated.
	Base *graph.Pair
	// Deltas[k] = E_{From+k} \ E_c: the Direct-Hop addition batch for the
	// k-th snapshot of the window.
	Deltas []*delta.Batch

	// leaves[k] indexes Deltas[k] for traversal (LeafOverlay); starSched
	// is the Direct-Hop schedule over them (star).
	leaves    []leafOverlay
	starOnce  sync.Once
	starSched *Schedule

	// schedMu guards sched, the single-flight slot of Schedule. It is
	// never held while building.
	schedMu sync.Mutex
	sched   *schedFlight
}

type leafOverlay struct {
	once sync.Once
	ov   *delta.Overlay
}

// schedFlight is one schedule construction, in flight until done closes.
type schedFlight struct {
	done  chan struct{}
	tg    *TG
	sched *Schedule
	err   error
}

func newRep(w Window, common graph.EdgeList, base *graph.Pair, deltas []*delta.Batch) *Rep {
	return &Rep{
		Window: w,
		N:      w.Store.NumVertices(),
		Common: common,
		Base:   base,
		Deltas: deltas,
		leaves: make([]leafOverlay, len(deltas)),
	}
}

// LeafOverlay returns Deltas[k] indexed for traversal: base + LeafOverlay(k)
// is the window's k-th snapshot. Each overlay is built once, on first use.
func (r *Rep) LeafOverlay(k int) *delta.Overlay {
	l := &r.leaves[k]
	l.once.Do(func() { l.ov = delta.NewOverlay(r.N, r.Deltas[k]) })
	return l.ov
}

// star returns the window's Direct-Hop schedule (starSchedule), built
// once, on first use.
func (r *Rep) star() *Schedule {
	r.starOnce.Do(func() { r.starSched = starSchedule(r.Deltas) })
	return r.starSched
}

// Schedule returns the window's Triangular Grid and its Work-Sharing
// schedule, the minimum-cost Steiner tree (SteinerIntervalDP). The first
// caller builds them while concurrent callers wait, each for as long as
// its ctx (nil = never cancelled) allows; built reports whether this call
// did the building. A failed build is handed to everyone waiting on it and
// then forgotten, so a later call tries again.
func (r *Rep) Schedule(ctx context.Context) (tg *TG, sched *Schedule, built bool, err error) {
	r.schedMu.Lock()
	f := r.sched
	if f != nil {
		r.schedMu.Unlock()
		var cancelled <-chan struct{}
		if ctx != nil {
			cancelled = ctx.Done()
		}
		select {
		case <-f.done:
			return f.tg, f.sched, false, f.err
		case <-cancelled:
			return nil, nil, false, fmt.Errorf("core: cancelled waiting for the window's schedule: %w", ctx.Err())
		}
	}
	f = &schedFlight{done: make(chan struct{}), err: errBuildPanicked}
	r.sched = f
	r.schedMu.Unlock()
	defer func() {
		if f.err != nil {
			r.schedMu.Lock()
			r.sched = nil
			r.schedMu.Unlock()
		}
		close(f.done)
	}()
	if f.tg, f.err = BuildTG(r.Window); f.err == nil {
		f.sched, f.err = NewSchedule(f.tg, SteinerIntervalDP(f.tg))
	}
	return f.tg, f.sched, true, f.err
}

// errBuildPanicked is what waiters on a plan build see if the builder
// panics out of it; the builder's own goroutine carries the panic.
var errBuildPanicked = errors.New("core: window plan construction panicked")

// BuildRep constructs the CommonGraph representation of a window.
//
// E_c = E_From \ (∪ Δ−_t over the window's transitions): an edge fails to
// be in every snapshot exactly when it is deleted at some transition
// (covering delete-then-re-add) or first added mid-window.
func BuildRep(w Window) (*Rep, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	first, err := w.Store.GetVersion(w.From)
	if err != nil {
		return nil, err
	}
	width := w.Width()
	dels := make([]graph.EdgeList, width-1)
	for t := range dels {
		dels[t] = w.deletions(t)
	}
	allDels := graph.UnionAll(dels...)
	common := graph.Minus(first, allDels)

	// The per-snapshot delta evolves by the window's own batches:
	// D_0 = E_From \ E_c = E_From ∩ allDels, and
	// D_{k+1} = (D_k \ Δ−_k) ∪ Δ+_k  (added edges are never in E_c).
	// This keeps every step O(|D|) instead of materializing snapshots.
	deltas := make([]*delta.Batch, width)
	cur := graph.Intersect(first, allDels)
	deltas[0] = delta.FromMerged(cur)
	for k := 1; k < width; k++ {
		cur = graph.Union(graph.Minus(cur, dels[k-1]), w.additions(k-1))
		deltas[k] = delta.FromMerged(cur)
	}
	return newRep(w, common, graph.NewPair(w.Store.NumVertices(), common), deltas), nil
}

// SnapshotGraph returns the overlay view of the window's k-th snapshot:
// the common base plus that snapshot's Direct-Hop delta. No mutation.
func (r *Rep) SnapshotGraph(k int) *delta.OverlayGraph {
	return delta.NewOverlayGraph(r.Base, r.LeafOverlay(k))
}

// CommonWithin returns the edges outside the common graph that are
// present in every snapshot lo..hi (window-relative, inclusive): the
// additions C[lo,hi] \ E_c that turn the window's common graph into the
// sub-window's. An edge outside E_c is common to those snapshots exactly
// when it is in every one of their deltas. The result may alias a delta
// and must not be modified.
func (r *Rep) CommonWithin(lo, hi int) graph.EdgeList {
	lists := make([]graph.EdgeList, 0, hi-lo+1)
	for _, d := range r.Deltas[lo : hi+1] {
		lists = append(lists, d.Edges())
	}
	return graph.IntersectAll(lists...)
}

// TotalDeltaEdges sums the Direct-Hop addition batches — the total number
// of additions Direct-Hop processes (the "22 additions" of the paper's
// worked example).
func (r *Rep) TotalDeltaEdges() int64 {
	var total int64
	for _, d := range r.Deltas {
		total += int64(d.Len())
	}
	return total
}
