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
// common graph is a search per deleted edge in its base row, which are
// promoted an intersection of the deltas — and then applied by one rebase:
// each surviving delta is written once, and the base CSR is patched row by
// row (graph.PatchRows), so a slide costs the rows it changes plus an
// amortised compaction, not a rewrite of the common graph. A maintained
// Rep carries no common edge list (Rep.Common is nil): its Base is E_c.
// The result always equals BuildRep of the current window
// (property-tested).
type MaintainedRep struct {
	rep     *Rep
	patched graph.PatchStats
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

// Patched reports what the last successful update wrote into the base
// CSR: zero when the common graph carried over as it was.
func (m *MaintainedRep) Patched() graph.PatchStats { return m.patched }

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

// maintenance is a maintenance update being planned: the window it moves
// to, and the edges that leave and join the common graph on the way.
// Planning reads the current representation and writes nothing anyone
// else can see; the deltas are written once, by rebase.
type maintenance struct {
	base   *graph.Pair    // the common graph being maintained, unchanged
	deltas []*delta.Batch // the current deltas, unchanged
	w      Window
	// next is the appended snapshot's delta before promotion, nil when
	// the update appends nothing; drop is 1 when it advances.
	next     graph.EdgeList
	drop     int
	leaving  graph.EdgeList // common edges the appended transition deletes
	promoted graph.EdgeList // edges common to every snapshot that remains
}

func (m *MaintainedRep) plan() *maintenance {
	return &maintenance{base: m.rep.Base, deltas: m.rep.Deltas, w: m.rep.Window}
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
	// every old delta. Each is found in its base row, keeping the common
	// side's weight.
	for _, e := range delBatch {
		if w, ok := p.base.Out.Lookup(e.Src, e.Dst); ok {
			p.leaving = append(p.leaving, graph.Edge{Src: e.Src, Dst: e.Dst, W: w})
		}
	}
	// The new snapshot: E_new \ E_c' = ((D_last ∪ leaving) \ Δ−) ∪ Δ+, and
	// leaving ⊆ Δ−, so it derives from the last delta alone.
	p.next = graph.Patch(p.deltas[len(p.deltas)-1].Edges(), delBatch, addBatch)
	p.w.To++
	return nil
}

// advance plans dropping the window's oldest snapshot.
func (p *maintenance) advance() error {
	if err := faults.Check(faults.CoreMaintainAdvance); err != nil {
		return fmt.Errorf("core: maintain advance: %w", err)
	}
	if p.w.Width() <= 1 {
		return fmt.Errorf("core: cannot advance a single-snapshot window")
	}
	// The snapshots that remain are deltas 1.. and the appended one. An
	// edge that leaves is in no remaining old delta's intersection (it was
	// common, so in no delta) nor in the appended one (deleted), so the
	// intersection is taken over the deltas as they are.
	remain := make([]graph.EdgeList, 0, len(p.deltas))
	for _, d := range p.deltas[1:] {
		remain = append(remain, d.Edges())
	}
	if p.next != nil {
		remain = append(remain, p.next)
	}
	p.promoted = graph.IntersectAll(remain...)
	p.drop = 1
	p.w.From++
	return nil
}

// rebase publishes a planned update as the new representation — the one
// place a maintained Base is built. Every surviving delta is written once:
// its promoted edges go and the leaving ones join (the two are disjoint,
// and no delta holds a leaving edge). When no edge leaves or joins the
// common graph the deltas and the base carry over as they are.
func (m *MaintainedRep) rebase(p *maintenance) {
	changed := len(p.leaving) > 0 || len(p.promoted) > 0
	deltas := make([]*delta.Batch, 0, len(p.deltas)+1)
	for _, d := range p.deltas[p.drop:] {
		if changed {
			d = delta.FromMerged(graph.Patch(d.Edges(), p.promoted, p.leaving))
		}
		deltas = append(deltas, d)
	}
	if p.next != nil {
		next := p.next
		if len(p.promoted) > 0 {
			next = graph.Minus(next, p.promoted)
		}
		deltas = append(deltas, delta.FromMerged(next))
	}
	base := p.base
	m.patched = graph.PatchStats{}
	if changed {
		var out *graph.CSR
		out, m.patched = graph.PatchRows(base.Out, p.leaving, p.promoted)
		base = &graph.Pair{Out: out}
	}
	m.rep = newRep(p.w, nil, base, deltas)
}
