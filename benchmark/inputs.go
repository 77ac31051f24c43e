package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"

	"commongraph"
	"commongraph/internal/graph"
)

// sizeFactor scales the LJ-sim stand-in every workload starts from:
// 32 768 vertices and 880 000 edges. It is the largest size at which the
// two window workloads still fit 100 ops into a run the driver's time
// cap allows (see README.md "Sizing").
const sizeFactor = 2

// history is an evolving graph as generated: a base snapshot plus
// per-transition batches.
type history struct {
	n    int
	base graph.EdgeList
	trs  []transition
}

type transition struct {
	adds, dels graph.EdgeList
}

// generateHistory derives a base graph and an update stream from the
// seed alone. All workloads share the base graph of a seed; streamSalt
// separates their update streams.
func generateHistory(seed, streamSalt uint64, transitions, updates int) (*history, error) {
	n, base := probeGenBase(sizeFactor, mix(seed, 0x6261_7365))
	trs, err := probeGenStream(n, base, transitions, updates/2, updates/2, mix(seed, streamSalt))
	if err != nil {
		return nil, err
	}
	return &history{n: n, base: base, trs: trs}, nil
}

// graph builds the product's in-memory evolving graph holding the
// history's first `transitions` transitions.
func (h *history) graph(transitions int) (*commongraph.EvolvingGraph, error) {
	g := commongraph.New(h.n, h.base)
	for i, tr := range h.trs[:transitions] {
		if _, err := g.ApplyUpdates(tr.adds, tr.dels); err != nil {
			return nil, fmt.Errorf("transition %d: %w", i, err)
		}
	}
	return g, nil
}

// mix derives the sub-seed of one input from the run's seed.
func mix(seed, salt uint64) uint64 { return probeGenRNG(seed ^ salt).Uint64() }

// sourcePool returns the k vertices of highest out-degree in the base
// graph, in seeded random order. Sources are drawn from the best-connected
// vertices because an op's cost depends heavily on its source otherwise:
// a low-degree R-MAT vertex may reach nothing, and one whose few edges the
// update stream happens to delete makes every snapshot a near-full
// recomputation (5x the edge work), so the tail of the latency
// distribution would be set by the draw, not by the program.
func sourcePool(h *history, k int, seed uint64) ([]graph.VertexID, error) {
	if k > h.n {
		return nil, fmt.Errorf("%d sources wanted from %d vertices", k, h.n)
	}
	deg := make([]int, h.n)
	for _, e := range h.base {
		deg[e.Src]++
	}
	pool := make([]graph.VertexID, h.n)
	for v := range pool {
		pool[v] = graph.VertexID(v)
	}
	sort.SliceStable(pool, func(i, j int) bool { return deg[pool[i]] > deg[pool[j]] })
	pool = pool[:k]
	r := probeGenRNG(seed)
	for i := len(pool) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool, nil
}

// rotation is the query sequence of the single-caller workloads: the
// algorithm rotates through the five Table-3 programs and, once per
// round of five, the source through 8 sources drawn by the seed from the
// 16 best-connected vertices. The cycle has 40 distinct queries.
type rotation struct {
	algos   []commongraph.Algorithm
	sources []graph.VertexID
}

func newRotation(h *history, seed uint64) (rotation, error) {
	pool, err := sourcePool(h, 16, mix(seed, 0x737263))
	if err != nil {
		return rotation{}, err
	}
	return rotation{algos: commongraph.Algorithms(), sources: pool[:8]}, nil
}

func (r rotation) query(i int) commongraph.Query {
	return commongraph.Query{
		Algorithm: r.algos[i%len(r.algos)],
		Source:    r.sources[(i/len(r.algos))%len(r.sources)],
	}
}

// cycle is the number of distinct queries.
func (r rotation) cycle() int { return len(r.algos) * len(r.sources) }

// fingerprint is an FNV-1a hash over generated inputs, printed so two
// commits can be shown to have run the same inputs.
type fingerprint struct {
	h   hash.Hash64
	buf [8]byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) u64(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *fingerprint) edges(el graph.EdgeList) {
	f.u64(uint64(len(el)))
	for _, e := range el {
		f.u64(uint64(e.Src)<<32 | uint64(e.Dst))
		f.u64(uint64(e.W))
	}
}

func (f *fingerprint) hex() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

// edgeFingerprint hashes the base list and every transition used.
func (h *history) edgeFingerprint() string {
	f := newFingerprint()
	f.u64(uint64(h.n))
	f.edges(h.base)
	for _, tr := range h.trs {
		f.edges(tr.adds)
		f.edges(tr.dels)
	}
	return "edges=" + f.hex()
}

// rotationFingerprint hashes the first n queries of a rotation over a
// window: the request stream of the single-caller workloads.
func rotationFingerprint(r rotation, n, from, to int) string {
	f := newFingerprint()
	for i := 0; i < n; i++ {
		q := r.query(i)
		f.h.Write([]byte(q.Algorithm.Name()))
		f.u64(uint64(q.Source))
		f.u64(uint64(from)<<32 | uint64(to))
	}
	return "requests=" + f.hex()
}
