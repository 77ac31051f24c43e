package engine

import (
	"strings"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/graph"
)

// panicAlgo is SSSP with a Propagate that always panics — a stand-in for
// a buggy vertex program running inside the worker pools.
type panicAlgo struct{ algo.SSSP }

func (panicAlgo) Propagate(algo.Value, graph.Weight) algo.Value {
	panic("vertex program bug")
}

// starGraph returns a hub with leaves out-edges, big enough to push one
// iteration past seqEdgeCutoff so the parallel pools engage.
func starGraph(leaves int) *graph.Pair {
	edges := make([]graph.Edge, leaves)
	for i := range edges {
		edges[i] = graph.Edge{Src: 0, Dst: graph.VertexID(i + 1), W: 1}
	}
	return graph.NewPair(leaves+1, edges)
}

// TestWorkerPanicContained proves a panic on a pool worker resurfaces on
// the coordinating goroutine (where internal/core's recoverToError can
// contain it) instead of crashing the process, and that the pool still
// drains — wg.Wait returns.
func TestWorkerPanicContained(t *testing.T) {
	g := starGraph(3 * seqEdgeCutoff)
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
	Run(g, panicAlgo{}, 0, Options{Workers: 4})
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
