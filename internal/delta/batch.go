// Package delta provides update batches (the Δ sets of the paper) and the
// mutation-free overlay representation: a static base CSR plus a stack of
// small per-batch CSRs that together present one logical snapshot without
// ever mutating the base graph (§4.1 of the paper).
package delta

import (
	"fmt"

	"commongraph/internal/graph"
)

// Batch is a canonical (sorted, deduplicated) set of edges used as a unit
// of update: a Δ+ (additions), a Δ− (deletions), or a Triangular Grid edge
// label. A Batch is immutable after construction.
type Batch struct {
	edges graph.EdgeList
}

// NewBatch builds a batch from edges, canonicalizing a copy of the input.
func NewBatch(edges graph.EdgeList) *Batch {
	return &Batch{edges: edges.Clone().Canonicalize()}
}

// FromCanonical wraps an already canonical list without copying. The caller
// must not modify the list afterwards. Non-canonical input is rejected with
// an error (wrapping graph.ErrNotCanonical) rather than a panic, so ingest
// paths fed untrusted batches degrade gracefully.
func FromCanonical(edges graph.EdgeList) (*Batch, error) {
	if !edges.IsCanonical() {
		return nil, fmt.Errorf("delta: FromCanonical: %w", graph.ErrNotCanonical)
	}
	return &Batch{edges: edges}, nil
}

// FromMerged wraps the result of set algebra over canonical lists
// (graph.Union, Minus, Intersect, UnionAll), which is canonical by
// construction, without FromCanonical's re-scan. Lists that arrive from
// outside the process go through FromCanonical.
func FromMerged(edges graph.EdgeList) *Batch { return &Batch{edges: edges} }

// Len returns the number of edges in the batch.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.edges)
}

// Edges returns the batch's canonical edge list (aliased; do not modify).
func (b *Batch) Edges() graph.EdgeList {
	if b == nil {
		return nil
	}
	return b.edges
}

// Contains reports membership by endpoints.
func (b *Batch) Contains(src, dst graph.VertexID) bool {
	return b != nil && b.edges.Contains(src, dst)
}

// Minus returns b \ o as a new batch.
func (b *Batch) Minus(o *Batch) *Batch {
	return &Batch{edges: graph.Minus(b.Edges(), o.Edges())}
}

// Union returns b ∪ o as a new batch.
func (b *Batch) Union(o *Batch) *Batch {
	return &Batch{edges: graph.Union(b.Edges(), o.Edges())}
}

// Intersect returns b ∩ o as a new batch.
func (b *Batch) Intersect(o *Batch) *Batch {
	return &Batch{edges: graph.Intersect(b.Edges(), o.Edges())}
}

// Equal reports whether two batches have the same endpoints.
func (b *Batch) Equal(o *Batch) bool {
	return graph.Equal(b.Edges(), o.Edges())
}

// String summarizes the batch.
func (b *Batch) String() string {
	return fmt.Sprintf("Batch(%d edges)", b.Len())
}
