package main

import (
	"time"

	"commongraph/internal/graph"
)

// Probe surface, layer graph: NewPair, the CSR pair build of a common
// graph (inside core.BuildRep) or of a whole snapshot (verification).

func probePairBuild(n int, edges graph.EdgeList) (*graph.Pair, time.Duration) {
	t := time.Now()
	p := graph.NewPair(n, edges)
	return p, time.Since(t)
}
