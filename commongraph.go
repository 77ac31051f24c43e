package commongraph

import (
	"commongraph/internal/algo"
	"commongraph/internal/graph"
	"commongraph/internal/snapshot"
)

// VertexID identifies a vertex; vertices are dense integers in [0, n).
type VertexID = graph.VertexID

// Weight is an integer edge weight. BFS ignores it; SSSP/SSWP/SSNP use it
// directly; Viterbi maps it to a transition probability.
type Weight = graph.Weight

// Edge is a directed weighted edge.
type Edge = graph.Edge

// Value is a vertex result value (Viterbi values are Q2.30 fixed-point
// probabilities; see ViterbiProbability).
type Value = algo.Value

// Infinity is the "unreached" value of minimizing algorithms.
const Infinity = algo.Infinity

// Algorithm is a monotonic vertex program; the five paper benchmarks are
// provided as package variables.
type Algorithm = algo.Algorithm

// The five monotonic benchmark algorithms of the paper's Table 3.
var (
	BFS     Algorithm = algo.BFS{}
	SSSP    Algorithm = algo.SSSP{}
	SSWP    Algorithm = algo.SSWP{}
	SSNP    Algorithm = algo.SSNP{}
	Viterbi Algorithm = algo.Viterbi{}
)

// Algorithms returns all five benchmark algorithms in the paper's order.
func Algorithms() []Algorithm { return algo.All() }

// AlgorithmByName resolves "BFS", "SSSP", "SSWP", "SSNP" or "Viterbi".
func AlgorithmByName(name string) (Algorithm, bool) { return algo.ByName(name) }

// ViterbiProbability converts a Viterbi result value to a float64
// probability in [0, 1].
func ViterbiProbability(v Value) float64 { return float64(v) / float64(algo.FixedOne) }

// EvolvingGraph is a sequence of graph snapshots held in CommonGraph form:
// the initial snapshot plus per-transition addition/deletion batches. Each
// edge is stored once. It is safe for concurrent Evaluate calls;
// ApplyUpdates requires exclusive access.
//
// The graph keeps the plans of the windows it was last queried over (the
// CommonGraph representation with its schedules and overlays, see
// DESIGN.md "Window plans"), so only the first query on a window pays for
// their construction.
type EvolvingGraph struct {
	store *snapshot.Store
	reps  repCache
}

// New creates an evolving graph over numVertices vertices whose snapshot 0
// contains the given edges (deduplicated by endpoints).
func New(numVertices int, initial []Edge) *EvolvingGraph {
	return &EvolvingGraph{store: snapshot.NewStore(numVertices, graph.EdgeList(initial))}
}

// ApplyUpdates appends a new snapshot derived from the latest one by the
// two batches (the new_version primitive of the paper's Table 1). It
// validates that deleted edges exist and added edges do not.
//
// Edge identity is by endpoints: if an edge is deleted and later re-added
// it must carry the same weight, or evaluation strategies may disagree on
// which weight a window sees.
func (g *EvolvingGraph) ApplyUpdates(additions, deletions []Edge) (version int, err error) {
	return g.store.NewVersion(graph.EdgeList(additions), graph.EdgeList(deletions))
}

// NumVertices returns the vertex-space size.
func (g *EvolvingGraph) NumVertices() int { return g.store.NumVertices() }

// NumSnapshots returns the number of snapshots (initial + transitions).
func (g *EvolvingGraph) NumSnapshots() int { return g.store.NumVersions() }

// Snapshot materializes snapshot i as a canonical edge list (the
// get_version primitive). The returned slice must not be modified.
func (g *EvolvingGraph) Snapshot(i int) ([]Edge, error) {
	el, err := g.store.GetVersion(i)
	return []Edge(el), err
}

// Diff returns the batches that turn snapshot i into snapshot j (the diff
// primitive): additions are edges in j but not i; deletions the reverse.
func (g *EvolvingGraph) Diff(i, j int) (additions, deletions []Edge, err error) {
	add, del, err := g.store.Diff(i, j)
	if err != nil {
		return nil, nil, err
	}
	return []Edge(add.Edges()), []Edge(del.Edges()), nil
}

// Store exposes the underlying snapshot store to sibling packages (the
// cmd/ tools); application code should not need it.
func (g *EvolvingGraph) Store() *snapshot.Store { return g.store }

// FromStore wraps an existing snapshot store (e.g. one loaded from a
// dataset directory) as an EvolvingGraph.
func FromStore(s *snapshot.Store) *EvolvingGraph { return &EvolvingGraph{store: s} }
