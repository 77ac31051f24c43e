package main

import (
	"fmt"

	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

// Probe surface, layer gen: the R-MAT stand-in, the update stream and the
// seeded RNG. The stand-in's committed seed is replaced by the run's.

func probeGenBase(factor float64, seed uint64) (int, graph.EdgeList) {
	s, ok := gen.ByName("LJ-sim")
	if !ok {
		panic("benchmark: gen has no LJ-sim stand-in")
	}
	s.Seed = seed
	return s.Build(factor)
}

func probeGenStream(n int, base graph.EdgeList, transitions, adds, dels int, seed uint64) ([]transition, error) {
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: transitions, Additions: adds, Deletions: dels, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("update stream: %w", err)
	}
	out := make([]transition, len(trs))
	for i, tr := range trs {
		out[i] = transition{adds: tr.Additions, dels: tr.Deletions}
	}
	return out, nil
}

func probeGenRNG(seed uint64) *gen.RNG { return gen.NewRNG(seed) }
