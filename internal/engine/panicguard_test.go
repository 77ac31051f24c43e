package engine

import (
	"strings"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/graph"
)

// panicAlgo is SSSP with a Propagate that panics past the source — a
// stand-in for a buggy vertex program running inside the worker pools.
// Seeding a batch out of the source runs clean, so the panic is raised by
// the pass the batch seeds.
type panicAlgo struct{ algo.SSSP }

func (a panicAlgo) Propagate(uval algo.Value, w graph.Weight) algo.Value {
	if uval != a.SourceValue() {
		panic("vertex program bug")
	}
	return a.SSSP.Propagate(uval, w)
}

// fanGraph returns a source 0 with no out-edges, seeds vertices 1..seeds
// each with fan out-edges to the vertices past them, and the batch that
// links the source to every seed.
func fanGraph(seeds, fan int) (*graph.Pair, graph.EdgeList) {
	n := 1 + seeds + fan
	var edges, batch graph.EdgeList
	for s := 1; s <= seeds; s++ {
		batch = append(batch, graph.Edge{Src: 0, Dst: graph.VertexID(s), W: 1})
		for j := 0; j < fan; j++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(s), Dst: graph.VertexID(1 + seeds + j), W: 1})
		}
	}
	return graph.NewPair(n, edges.Canonicalize()), batch.Canonicalize()
}

// TestWorkerPanicContained proves a panic on a pool worker resurfaces on
// the coordinating goroutine (where internal/core's recoverToError can
// contain it) instead of crashing the process, and that the pool still
// drains — wg.Wait returns. The pool is reached the way an evaluation
// reaches it: an incremental pass seeding more than asyncCutoff vertices
// runs sync, and its first iteration holds more than seqEdgeCutoff edges.
func TestWorkerPanicContained(t *testing.T) {
	seeds := asyncCutoff + 1
	g, batch := fanGraph(seeds, seqEdgeCutoff/seeds+1)
	og := delta.NewOverlayGraph(g, delta.NewOverlay(g.NumVertices(), delta.NewBatch(batch)))
	st := NewState(g.NumVertices(), panicAlgo{}, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not reach the coordinator")
		}
		wp, ok := r.(workerPanic)
		if !ok {
			t.Fatalf("recovered %T, want workerPanic", r)
		}
		if !strings.Contains(wp.String(), "vertex program bug") {
			t.Fatalf("panic value lost: %s", wp)
		}
		if len(wp.stack) == 0 {
			t.Fatal("worker stack not captured")
		}
	}()
	IncrementalAdd(og, st, batch, Options{Workers: 4})
}

// TestWorkerPanicFirstWins: concurrent sibling panics collapse to one
// captured value; the rest are dropped, not re-raised later.
func TestWorkerPanicFirstWins(t *testing.T) {
	var box panicBox
	box.store("first")
	box.store("second")
	defer func() {
		wp, ok := recover().(workerPanic)
		if !ok || wp.val != "first" {
			t.Fatalf("rethrow raised %v, want the first stored panic", wp)
		}
	}()
	box.rethrow()
}
