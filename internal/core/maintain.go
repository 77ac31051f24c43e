package core

import (
	"fmt"

	"commongraph/internal/delta"
	"commongraph/internal/faults"
	"commongraph/internal/graph"
)

// MaintainedRep is a CommonGraph representation kept up to date as the
// evolving graph's window moves — the maintenance behaviour §4.1 describes
// ("when new snapshots are created by a stream of batches, the system uses
// the batches to update the common graph"):
//
//   - Append extends the window by the store's next snapshot: edges the
//     new transition deletes leave the common graph and join every
//     snapshot's delta; the new snapshot's delta derives from the last one.
//   - Advance drops the window's oldest snapshot: edges present throughout
//     the remaining window are promoted into the common graph and leave
//     the remaining deltas.
//
// Both updates cost O(|Δ| · width) set work plus one base-CSR rebuild when
// the common edge set actually changed; the result always equals
// BuildRep of the current window (property-tested).
type MaintainedRep struct {
	rep *Rep
}

// NewMaintainedRep builds the representation for an initial window.
func NewMaintainedRep(w Window) (*MaintainedRep, error) {
	rep, err := BuildRep(w)
	if err != nil {
		return nil, err
	}
	return &MaintainedRep{rep: rep}, nil
}

// Rep returns the current representation. The caller must not retain it
// across Append/Advance calls.
func (m *MaintainedRep) Rep() *Rep { return m.rep }

// Window returns the currently covered window.
func (m *MaintainedRep) Window() Window { return m.rep.Window }

// Append extends the window to include the store's next snapshot, which
// must already exist (Store.NewVersion first, then Append).
func (m *MaintainedRep) Append() error {
	if err := faults.Check(faults.CoreMaintainAppend); err != nil {
		return fmt.Errorf("core: maintain append: %w", err)
	}
	w := m.rep.Window
	if w.To+1 >= w.Store.NumVersions() {
		return fmt.Errorf("core: no snapshot beyond %d to append (store has %d versions)",
			w.To, w.Store.NumVersions())
	}
	addBatch := w.Store.Additions(w.To).Edges()
	delBatch := w.Store.Deletions(w.To).Edges()

	// Edges of the common graph deleted by this transition stop being
	// common; they are still present in every *old* snapshot, so they join
	// every old delta.
	leaving := graph.Intersect(m.rep.Common, delBatch)
	newCommon := graph.Minus(m.rep.Common, leaving)

	width := w.Width()
	newDeltas := make([]*delta.Batch, width+1)
	for k := 0; k < width; k++ {
		newDeltas[k] = delta.FromMerged(graph.Union(m.rep.Deltas[k].Edges(), leaving))
	}
	// The new snapshot: E_new \ E_c' = ((D_last ∪ leaving) \ Δ−) ∪ Δ+.
	last := newDeltas[width-1].Edges()
	newDeltas[width] = delta.FromMerged(graph.Union(graph.Minus(last, delBatch), addBatch))

	base := m.rep.Base
	if len(leaving) > 0 {
		base = graph.NewPair(m.rep.N, newCommon)
	}
	m.rep = newRep(Window{Store: w.Store, From: w.From, To: w.To + 1}, newCommon, base, newDeltas)
	return nil
}

// Advance drops the oldest snapshot from the window. Edges present in
// every remaining snapshot — exactly those in the second snapshot's delta
// that also survive every later snapshot — are promoted into the common
// graph.
func (m *MaintainedRep) Advance() error {
	if err := faults.Check(faults.CoreMaintainAdvance); err != nil {
		return fmt.Errorf("core: maintain advance: %w", err)
	}
	w := m.rep.Window
	if w.Width() <= 1 {
		return fmt.Errorf("core: cannot advance a single-snapshot window")
	}
	width := w.Width()
	promoted := m.rep.CommonWithin(1, width-1)

	newCommon := graph.Union(m.rep.Common, promoted)
	newDeltas := make([]*delta.Batch, width-1)
	for k := 1; k < width; k++ {
		newDeltas[k-1] = delta.FromMerged(graph.Minus(m.rep.Deltas[k].Edges(), promoted))
	}
	base := m.rep.Base
	if len(promoted) > 0 {
		base = graph.NewPair(m.rep.N, newCommon)
	}
	m.rep = newRep(Window{Store: w.Store, From: w.From + 1, To: w.To}, newCommon, base, newDeltas)
	return nil
}

// Slide is Append followed by Advance: the window keeps its width while
// tracking the newest snapshot. It is atomic: if the Advance half fails
// after the Append succeeded, the maintained window rolls back to its
// pre-Slide state (every update builds a fresh Rep and swaps the pointer,
// so the saved representation is still exact), leaving no half-moved
// window behind.
func (m *MaintainedRep) Slide() error {
	saved := m.rep
	if err := m.Append(); err != nil {
		return err
	}
	if err := m.Advance(); err != nil {
		m.rep = saved
		return fmt.Errorf("core: slide rolled back: %w", err)
	}
	return nil
}
