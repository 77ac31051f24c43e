package main

import (
	"time"

	"commongraph/internal/graph"
	"commongraph/internal/snapshot"
)

// Probe surface, layer snapshot: Store.GetVersion, the materialisation
// core.BuildRep starts with.

func probeGetVersion(s *snapshot.Store, i int) (graph.EdgeList, time.Duration, error) {
	t := time.Now()
	el, err := s.GetVersion(i)
	return el, time.Since(t), err
}
