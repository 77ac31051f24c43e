package main

import (
	"commongraph"
	"commongraph/internal/delta"
	"commongraph/internal/engine"
	"commongraph/internal/graph"
)

// Probe surface, layer engine: Run (the dense from-scratch solve),
// State.Clone, IncrementalAdd, and Reference, the oracle every
// verification compares against. Engine options stay at the zero value,
// the product default.

func probeSolve(g delta.Graph, q commongraph.Query) *engine.State {
	st, _ := engine.Run(g, q.Algorithm, q.Source, engine.Options{})
	return st
}

func probeClone(st *engine.State) *engine.State { return st.Clone() }

func probeIncrementalAdd(g delta.Graph, st *engine.State, batch graph.EdgeList) {
	engine.IncrementalAdd(g, st, batch, engine.Options{})
}

// stateBytes is the size of one State.Clone: a packed value/parent word
// per vertex.
func stateBytes(n int) int64 { return int64(n) * 8 }

// probeReferenceChecksum solves q on one whole snapshot with the
// Bellman-Ford oracle and folds the values the way core.Checksum folds a
// State (FNV-1a over the low 32 bits of each value), written out here so
// the check does not share code with what it checks.
func probeReferenceChecksum(n int, edges []commongraph.Edge, q commongraph.Query) uint64 {
	vals := engine.Reference(graph.NewPair(n, edges), q.Algorithm, q.Source)
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}
