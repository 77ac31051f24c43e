package main

import (
	"commongraph/internal/delta"
	"commongraph/internal/graph"
)

// Probe surface, layer delta: NewOverlay + NewOverlayGraph, the view of
// one snapshot as the common base plus its addition batch.

func probeOverlay(base *graph.Pair, n int, batch *delta.Batch) *delta.OverlayGraph {
	return delta.NewOverlayGraph(base, delta.NewOverlay(n, batch))
}
