package engine

import (
	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
)

// Options tunes an engine pass. The scheduler is not among them: the
// input picks it (see propagate). Every pass runs on the goroutine that
// calls it.
type Options struct {
	// Span, when non-nil, is the caller's trace span: each Run /
	// IncrementalAddParts emits one child span carrying its Stats. Spans
	// are per engine pass, never per vertex — the hot loop stays
	// untouched, and a nil Span costs one pointer test per pass.
	Span *obs.Span
}

// asyncCutoff is the scheduler policy of §4.3 for incremental passes: a
// seeded frontier of at most this many vertices drains the sequential
// async worklist, a larger one runs level-synchronous iterations. Set from BenchmarkAsyncCutover
// (DESIGN.md "Engine" records the measurement).
const asyncCutoff = 2048

// Stats reports the work an engine pass performed.
type Stats struct {
	Iterations  int   // sync iterations (0 for async and ordered passes)
	EdgesPushed int64 // out-edges examined from active vertices
	Improved    int64 // successful value improvements
	Trimmed     int64 // vertices invalidated by deletion trimming
}

// Add accumulates another pass's stats into s.
func (s *Stats) Add(o Stats) {
	s.Iterations += o.Iterations
	s.EdgesPushed += o.EdgesPushed
	s.Improved += o.Improved
	s.Trimmed += o.Trimmed
}

// Run evaluates the query from scratch: it draws state holding only the
// source's value (recycled storage when the free list has some) and
// settles the graph in value order on the calling goroutine (runOrdered),
// so each reached vertex relaxes its row once.
func Run(g delta.Graph, a algo.Algorithm, src graph.VertexID, opt Options) (*State, Stats) {
	sp := opt.Span.StartChild("engine.run")
	sp.SetAttr(obs.String("algo", a.Name()))
	st := newStateRecycled(g.NumVertices(), a, src)
	q := getQueue()
	stats := runOrdered(st, []graph.VertexID{src}, g.OutRows(), q)
	putQueue(q)
	endPass(sp, "ordered", stats)
	return st, stats
}

// endPass ends a pass's span with its Stats as attributes, mode naming
// the pass that ran: ordered, async or sync.
func endPass(sp *obs.Span, mode string, s Stats) {
	sp.SetAttr(obs.String("mode", mode),
		obs.Int("iterations", s.Iterations),
		obs.Int64("edges_pushed", s.EdgesPushed),
		obs.Int64("improved", s.Improved))
	sp.End()
}

// Propagate drives an already-seeded frontier to fixpoint over g. Exposed
// for the incremental paths (addition seeding, trim re-propagation).
// Duplicate seeds are deduplicated; the frontier starts in its sparse
// representation, so a small seed set never pays a bitset-scan.
func Propagate(g delta.Graph, st *State, seeds []graph.VertexID) Stats {
	f := getFrontier(g.NumVertices())
	for _, v := range seeds {
		f.set(v)
	}
	stats, _ := propagate(g, st, f)
	putFrontier(f)
	return stats
}

// propagate is the input-chosen scheduler of an incremental pass (§4.3),
// and returns the mode it picked. A small frontier — the common shape of
// an incremental batch — drains the async worklist, where an improvement
// is visible within the pass; a large one runs synchronous iterations,
// which walk a dense frontier in word order. Either leaves seed empty, for
// the caller to recycle.
func propagate(g delta.Graph, st *State, seed *frontier) (Stats, string) {
	if seed.count() <= asyncCutoff {
		return runAsync(st, seed, g.OutRows()), "async"
	}
	return runSync(st, seed, g.OutRows()), "sync"
}

// runSync runs level-synchronized iterations on the calling goroutine.
// Each iteration walks the frontier in the representation it holds —
// the sparse list, or an ordered scan of the bitset's words — into the
// next frontier. The pass leaves the seed frontier cur empty.
func runSync(st *State, cur *frontier, layers []graph.Rows) Stats {
	var stats Stats
	next := getFrontier(cur.n)
	seed := cur
	for !cur.empty() {
		stats.Iterations++
		var p, imp int64
		if cur.isSparse() {
			p, imp = sparseSeq(st, cur.list(), layers, next)
		} else {
			p, imp = denseSeq(st, cur, layers, next)
		}
		stats.EdgesPushed += p
		stats.Improved += imp
		cur, next = next, cur
		next.clear()
	}
	// Both frontiers are empty, and one of them is the caller's seed.
	if next == seed {
		next = cur
	}
	putFrontier(next)
	return stats
}

// sparseSeq relaxes the rows of a sparse frontier's vertices into next and
// returns (pushed, improved) counts.
func sparseSeq(st *State, list []graph.VertexID, layers []graph.Rows, next *frontier) (int64, int64) {
	var p, imp int64
	alg, id := st.a, st.a.Identity()
	for _, u := range list {
		uval := st.Value(u)
		if uval == id {
			continue
		}
		for li := range layers {
			L := &layers[li]
			lo, hi := L.Starts[u], L.Ends[u]
			ts := L.Targets[lo:hi]
			ws := L.Weights[lo:hi]
			for i, v := range ts {
				if st.TryImprove(v, alg.Propagate(uval, ws[i]), u) {
					imp++
					next.set(v)
				}
			}
			p += int64(len(ts))
		}
	}
	return p, imp
}

// denseSeq is sparseSeq for a dense frontier: it scans the bitset words in
// order.
func denseSeq(st *State, cur *frontier, layers []graph.Rows, next *frontier) (int64, int64) {
	var p, imp int64
	alg, id := st.a, st.a.Identity()
	cur.forEach(func(u graph.VertexID) {
		uval := st.Value(u)
		if uval == id {
			return
		}
		for li := range layers {
			L := &layers[li]
			lo, hi := L.Starts[u], L.Ends[u]
			ts := L.Targets[lo:hi]
			ws := L.Weights[lo:hi]
			for i, v := range ts {
				if st.TryImprove(v, alg.Propagate(uval, ws[i]), u) {
					imp++
					next.set(v)
				}
			}
			p += int64(len(ts))
		}
	})
	return p, imp
}
