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
//   - Slide does both, keeping the window's width.
//
// Every update is planned on the small lists — which edges leave the
// common graph is a search per deleted edge, which are promoted an
// intersection of the deltas — and then applied by one rebase: O(|Δ| ·
// width) set work plus, when the common edge set actually changed, a
// single pass that writes the new common list and its base CSR together.
// The result always equals BuildRep of the current window
// (property-tested).
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
	p := m.plan()
	if err := p.append(); err != nil {
		return err
	}
	m.rebase(p)
	return nil
}

// Advance drops the oldest snapshot from the window. Edges present in
// every remaining snapshot — exactly those in the second snapshot's delta
// that also survive every later snapshot — are promoted into the common
// graph.
func (m *MaintainedRep) Advance() error {
	p := m.plan()
	if err := p.advance(); err != nil {
		return err
	}
	m.rebase(p)
	return nil
}

// Slide is Append followed by Advance: the window keeps its width while
// tracking the newest snapshot. It is atomic: both halves are planned
// before anything is published, so a failure in either leaves the
// maintained window exactly as it was.
func (m *MaintainedRep) Slide() error {
	p := m.plan()
	if err := p.append(); err != nil {
		return err
	}
	if err := p.advance(); err != nil {
		return fmt.Errorf("core: slide rolled back: %w", err)
	}
	m.rebase(p)
	return nil
}

// maintenance is a maintenance update being planned: the window and the
// deltas the representation will have, and the edges that leave and join
// the common graph on the way. Planning reads the current representation
// and writes nothing anyone else can see.
type maintenance struct {
	common   graph.EdgeList // the common graph being maintained, unchanged
	w        Window
	deltas   []*delta.Batch
	leaving  graph.EdgeList // common edges the appended transition deletes
	promoted graph.EdgeList // edges common to every snapshot that remains
}

func (m *MaintainedRep) plan() *maintenance {
	return &maintenance{common: m.rep.Common, w: m.rep.Window, deltas: m.rep.Deltas}
}

// append plans the window's extension by the store's next snapshot.
func (p *maintenance) append() error {
	if err := faults.Check(faults.CoreMaintainAppend); err != nil {
		return fmt.Errorf("core: maintain append: %w", err)
	}
	if p.w.To+1 >= p.w.Store.NumVersions() {
		return fmt.Errorf("core: no snapshot beyond %d to append (store has %d versions)",
			p.w.To, p.w.Store.NumVersions())
	}
	addBatch := p.w.Store.Additions(p.w.To).Edges()
	delBatch := p.w.Store.Deletions(p.w.To).Edges()

	// Edges of the common graph deleted by this transition stop being
	// common; they are still present in every *old* snapshot, so they join
	// every old delta. Intersecting from the common side keeps its weights.
	p.leaving = graph.Intersect(p.common, delBatch)

	width := len(p.deltas)
	deltas := make([]*delta.Batch, width+1)
	copy(deltas, p.deltas)
	if len(p.leaving) > 0 {
		for k := 0; k < width; k++ {
			deltas[k] = delta.FromMerged(graph.Union(p.deltas[k].Edges(), p.leaving))
		}
	}
	// The new snapshot: E_new \ E_c' = ((D_last ∪ leaving) \ Δ−) ∪ Δ+.
	last := deltas[width-1].Edges()
	deltas[width] = delta.FromMerged(graph.Union(graph.Minus(last, delBatch), addBatch))
	p.deltas = deltas
	p.w.To++
	return nil
}

// advance plans dropping the window's oldest snapshot.
func (p *maintenance) advance() error {
	if err := faults.Check(faults.CoreMaintainAdvance); err != nil {
		return fmt.Errorf("core: maintain advance: %w", err)
	}
	width := len(p.deltas)
	if width <= 1 {
		return fmt.Errorf("core: cannot advance a single-snapshot window")
	}
	p.promoted = commonWithin(p.deltas, 1, width-1)

	deltas := make([]*delta.Batch, width-1)
	copy(deltas, p.deltas[1:])
	if len(p.promoted) > 0 {
		for k := range deltas {
			deltas[k] = delta.FromMerged(graph.Minus(deltas[k].Edges(), p.promoted))
		}
	}
	p.deltas = deltas
	p.w.From++
	return nil
}

// rebase publishes a planned update as the new representation — the one
// place a maintained Base is built. When no edge leaves or joins the
// common graph the common list and its base CSR carry over as they are.
func (m *MaintainedRep) rebase(p *maintenance) {
	common, base := m.rep.Common, m.rep.Base
	if len(p.leaving) > 0 || len(p.promoted) > 0 {
		common, base = graph.PatchPair(m.rep.N, common, p.leaving, p.promoted)
	}
	m.rep = newRep(p.w, common, base, p.deltas)
}
