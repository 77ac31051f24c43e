package engine

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
)

// Options tunes an engine pass. The scheduler is not among them: the
// input picks it (see propagate).
type Options struct {
	// Workers is the parallel width of an incremental pass's sync
	// iterations; 0 means GOMAXPROCS. The from-scratch solve (Run) runs on
	// one goroutine whatever it says.
	Workers int
	// Span, when non-nil, is the caller's trace span: each Run /
	// IncrementalAddParts emits one child span carrying its Stats. Spans
	// are per engine pass, never per vertex — the hot loop stays
	// untouched, and a nil Span costs one pointer test per pass.
	Span *obs.Span
}

// WithSpan returns a copy of the options with the trace span replaced —
// the executors stamp their current schedule-edge span onto the engine
// pass they are about to run.
func (o Options) WithSpan(s *obs.Span) Options {
	o.Span = s
	return o
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
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
	sp := opt.Span.StartChild("engine.run", obs.String("algo", a.Name()))
	st := newStateRecycled(g.NumVertices(), a, src)
	q := getQueue()
	stats := runOrdered(st, []graph.VertexID{src}, g.OutRows(), q)
	putQueue(q)
	sp.SetAttr(statAttrs("ordered", stats)...)
	sp.End()
	return st, stats
}

// statAttrs renders a pass's Stats as span attributes, mode naming the
// pass that ran: ordered, async or sync.
func statAttrs(mode string, s Stats) []obs.Attr {
	return []obs.Attr{
		obs.String("mode", mode),
		obs.Int("iterations", s.Iterations),
		obs.Int64("edges_pushed", s.EdgesPushed),
		obs.Int64("improved", s.Improved),
	}
}

// Propagate drives an already-seeded frontier to fixpoint over g. Exposed
// for the incremental paths (addition seeding, trim re-propagation).
// Duplicate seeds are deduplicated; the frontier starts in its sparse
// representation, so a small seed set never pays a bitset-scan.
func Propagate(g delta.Graph, st *State, seeds []graph.VertexID, opt Options) Stats {
	f := getFrontier(g.NumVertices())
	for _, v := range seeds {
		f.setSeq(v)
	}
	stats, _ := propagate(g, st, f, opt)
	putFrontier(f)
	return stats
}

// propagate is the input-chosen scheduler of an incremental pass (§4.3),
// and returns the mode it picked. A small frontier — the common shape of
// an incremental batch — drains the async worklist, where an improvement
// is visible within the pass and no level barrier is paid; a large one
// runs synchronous iterations, which can use every worker. Either leaves
// seed empty, for the caller to recycle.
func propagate(g delta.Graph, st *State, seed *frontier, opt Options) (Stats, string) {
	if seed.count() <= asyncCutoff {
		return runAsync(st, seed, g.OutRows()), "async"
	}
	return runSync(st, seed, g.OutRows(), opt.workers()), "sync"
}

// degree sums u's row lengths across the layers.
func degree(layers []graph.Rows, u graph.VertexID) int {
	d := 0
	for i := range layers {
		d += int(layers[i].Ends[u] - layers[i].Starts[u])
	}
	return d
}

// Scheduling constants of the sync hot path.
const (
	// seqEdgeCutoff: an iteration examining no more edges than this runs
	// on the calling goroutine, with plain stores — handing it to workers
	// costs more than the work. Set from BenchmarkEngineIterationCrossover
	// (DESIGN.md "Engine" records the measurement).
	seqEdgeCutoff = 65536
	// chunkTargetPerWorker: the stealing cursor hands out roughly this
	// many chunks per worker, so a slow chunk (a hub's row) delays one
	// chunk, not a shard.
	chunkTargetPerWorker = 8
	// minChunkEdges floors the degree-aware chunk size.
	minChunkEdges = 1024
	// denseWordChunk is the stealing granularity of dense word scans.
	denseWordChunk = 128
)

// syncRunner holds one sync pass's reusable scratch: the next frontier,
// per-worker buffers, and the degree-prefix array of the sparse path.
// Everything is recycled across iterations, and the runner, buffers and
// prefix included, across passes (runners).
type syncRunner struct {
	st      *State
	alg     algo.Algorithm
	id      algo.Value
	layers  []graph.Rows
	workers int
	min     bool
	next    *frontier
	prefix  []int
	bufs    [][]graph.VertexID
}

// runSync runs level-synchronized iterations. Each iteration picks the
// frontier representation (sparse list vs dense bitset scan) and the
// execution shape (sequential below seqEdgeCutoff; otherwise degree-aware
// chunks handed to workers through an atomic work-stealing cursor).
// The pass leaves the seed frontier cur empty.
func runSync(st *State, cur *frontier, layers []graph.Rows, workers int) Stats {
	var stats Stats
	r, _ := runners.Get().(*syncRunner)
	if r == nil {
		r = new(syncRunner)
	}
	r.st, r.alg, r.id, r.min = st, st.a, st.a.Identity(), st.minimize()
	r.layers, r.workers, r.next = layers, workers, getFrontier(cur.n)
	seed := cur
	for !cur.empty() {
		stats.Iterations++
		p, imp := r.iterate(cur)
		stats.EdgesPushed += p
		stats.Improved += imp
		cur, r.next = r.next, cur
		r.next.clear()
	}
	// Both frontiers are empty, and one of them is the caller's seed.
	if r.next == seed {
		r.next = cur
	}
	putFrontier(r.next)
	*r = syncRunner{prefix: r.prefix, bufs: r.bufs}
	runners.Put(r)
	return stats
}

// runners recycles sync runners across passes; a pooled runner keeps only
// its prefix array and worker buffers.
var runners sync.Pool

// iterate processes one frontier into r.next and returns (pushed,
// improved) counts.
func (r *syncRunner) iterate(cur *frontier) (int64, int64) {
	if cur.isSparse() {
		list := cur.list()
		// Degree prefix over the active list: prefix[i] is the number of
		// frontier edges before list[i]. It prices the iteration exactly
		// (sequential vs parallel) and lets chunks cut in edge space, so
		// a hub's row splits across chunks instead of serializing one.
		if cap(r.prefix) < len(list)+1 {
			r.prefix = make([]int, len(list)+1)
		}
		prefix := r.prefix[:len(list)+1]
		total := 0
		for i, u := range list {
			prefix[i] = total
			total += degree(r.layers, u)
		}
		prefix[len(list)] = total
		if r.workers == 1 || total <= seqEdgeCutoff {
			return r.sparseSeq(list)
		}
		return r.sparsePar(list, prefix, total)
	}
	// Dense: ordered word scan, priced like the sparse one.
	if r.workers == 1 || !r.denseWorthWorkers(cur) {
		return r.denseSeq(cur)
	}
	return r.densePar(cur)
}

// denseWorthWorkers prices a dense iteration by the edges it will examine,
// the degree sum the sparse path prices by, and stops counting once past
// seqEdgeCutoff: a frontier just over the sparse list's keep bound can
// hold a few thousand edges, which workers cost more to hand out than to
// relax.
func (r *syncRunner) denseWorthWorkers(cur *frontier) bool {
	total := 0
	for wi, w := range cur.bits {
		for ; w != 0; w &= w - 1 {
			v := wi*64 + bits.TrailingZeros64(w)
			if v >= cur.n {
				break
			}
			if total += degree(r.layers, graph.VertexID(v)); total > seqEdgeCutoff {
				return true
			}
		}
	}
	return false
}

// sparseSeq drains a sparse frontier on the calling goroutine; the next
// frontier is maintained with non-atomic writes.
func (r *syncRunner) sparseSeq(list []graph.VertexID) (int64, int64) {
	var p, imp int64
	st, next, id, min := r.st, r.next, r.id, r.min
	for _, u := range list {
		uval := st.Value(u)
		if uval == id {
			continue
		}
		for li := range r.layers {
			L := &r.layers[li]
			lo, hi := L.Starts[u], L.Ends[u]
			ts := L.Targets[lo:hi]
			ws := L.Weights[lo:hi]
			for i, v := range ts {
				cand := r.alg.Propagate(uval, ws[i])
				if st.improveSeq(v, cand, u, min) {
					imp++
					next.setSeq(v)
				}
			}
			p += int64(len(ts))
		}
	}
	return p, imp
}

// denseSeq scans the bitset words in order on the calling goroutine.
func (r *syncRunner) denseSeq(cur *frontier) (int64, int64) {
	var p, imp int64
	st, next, id, min := r.st, r.next, r.id, r.min
	cur.forEachInWordRange(0, cur.words(), func(u graph.VertexID) {
		uval := st.Value(u)
		if uval == id {
			return
		}
		for li := range r.layers {
			L := &r.layers[li]
			lo, hi := L.Starts[u], L.Ends[u]
			ts := L.Targets[lo:hi]
			ws := L.Weights[lo:hi]
			for i, v := range ts {
				cand := r.alg.Propagate(uval, ws[i])
				if st.improveSeq(v, cand, u, min) {
					imp++
					next.setSeq(v)
				}
			}
			p += int64(len(ts))
		}
	})
	return p, imp
}

// buffers returns w cleared per-worker collection buffers.
func (r *syncRunner) buffers(w int) [][]graph.VertexID {
	for len(r.bufs) < w {
		r.bufs = append(r.bufs, nil)
	}
	for i := 0; i < w; i++ {
		r.bufs[i] = r.bufs[i][:0]
	}
	return r.bufs[:w]
}

// publish installs the workers' collected vertices as r.next's exact
// sparse list (or drops to dense past the size threshold).
func (r *syncRunner) publish(bufs [][]graph.VertexID) {
	collected := r.next.sparse[:0]
	for _, b := range bufs {
		collected = append(collected, b...)
	}
	r.next.adopt(collected)
}

// chunkEdges is the degree-aware chunk size for an edge-space scan:
// roughly chunkTargetPerWorker chunks per worker, floored so tiny
// frontiers do not shatter into cache-hostile slivers.
func chunkEdges(totalEdges, workers int) int {
	if workers < 1 {
		workers = 1
	}
	sz := totalEdges / (workers * chunkTargetPerWorker)
	if sz < minChunkEdges {
		sz = minChunkEdges
	}
	return sz
}

// sparsePar processes a sparse frontier with degree-aware chunks in edge
// space: chunk k owns frontier-edge positions [k*sz, (k+1)*sz), and an
// atomic cursor lets idle workers steal the next chunk. A hub vertex's
// row spans several chunks, so it parallelizes instead of pinning the
// worker that drew it.
func (r *syncRunner) sparsePar(list []graph.VertexID, prefix []int, total int) (int64, int64) {
	sz := chunkEdges(total, r.workers)
	chunks := (total + sz - 1) / sz
	workers := r.workers
	if workers > chunks {
		workers = chunks
	}
	bufs := r.buffers(workers)
	var cursor atomic.Int64
	var pushed, improved atomic.Int64
	var wg sync.WaitGroup
	var box panicBox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer box.capture()
			var p, imp int64
			buf := bufs[w]
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					break
				}
				lo := c * sz
				hi := lo + sz
				if hi > total {
					hi = total
				}
				// First vertex whose edge range reaches past lo.
				i := sort.Search(len(list), func(i int) bool { return prefix[i+1] > lo })
				for ; i < len(list) && prefix[i] < hi; i++ {
					a, b := lo-prefix[i], hi-prefix[i]
					if a < 0 {
						a = 0
					}
					if d := prefix[i+1] - prefix[i]; b > d {
						b = d
					}
					p2, i2 := r.pushRange(list[i], a, b, &buf)
					p += p2
					imp += i2
				}
			}
			bufs[w] = buf // index-disjoint: one w per goroutine
			pushed.Add(p)
			improved.Add(imp)
		}(w)
	}
	wg.Wait()
	box.rethrow()
	r.publish(bufs)
	return pushed.Load(), improved.Load()
}

// pushRange pushes u's frontier-edge positions [a, b) — a sub-range of
// its concatenated layer rows — collecting newly activated vertices.
func (r *syncRunner) pushRange(u graph.VertexID, a, b int, buf *[]graph.VertexID) (int64, int64) {
	uval := r.st.Value(u)
	if uval == r.id {
		return 0, 0
	}
	var p, imp int64
	st, next, min := r.st, r.next, r.min
	off := 0
	for li := range r.layers {
		L := &r.layers[li]
		lo, hi := L.Starts[u], L.Ends[u]
		d := int(hi - lo)
		if off+d <= a {
			off += d
			continue
		}
		if off >= b {
			break
		}
		s, e := 0, d
		if a > off {
			s = a - off
		}
		if b-off < d {
			e = b - off
		}
		ts := L.Targets[lo+int32(s) : lo+int32(e)]
		ws := L.Weights[lo+int32(s) : lo+int32(e)]
		for i, v := range ts {
			cand := r.alg.Propagate(uval, ws[i])
			if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
				imp++
				if next.trySet(v) {
					*buf = append(*buf, v)
				}
			}
		}
		p += int64(len(ts))
		off += d
	}
	return p, imp
}

// pushFull pushes u's whole row (all layers), collecting newly activated
// vertices — the dense-scan worker body.
func (r *syncRunner) pushFull(u graph.VertexID, buf *[]graph.VertexID) (int64, int64) {
	uval := r.st.Value(u)
	if uval == r.id {
		return 0, 0
	}
	var p, imp int64
	st, next, min := r.st, r.next, r.min
	for li := range r.layers {
		L := &r.layers[li]
		lo, hi := L.Starts[u], L.Ends[u]
		ts := L.Targets[lo:hi]
		ws := L.Weights[lo:hi]
		for i, v := range ts {
			cand := r.alg.Propagate(uval, ws[i])
			if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
				imp++
				if next.trySet(v) {
					*buf = append(*buf, v)
				}
			}
		}
		p += int64(len(ts))
	}
	return p, imp
}

// densePar scans the bitset in word chunks behind a stealing cursor.
func (r *syncRunner) densePar(cur *frontier) (int64, int64) {
	words := cur.words()
	chunks := (words + denseWordChunk - 1) / denseWordChunk
	workers := r.workers
	if workers > chunks {
		workers = chunks
	}
	bufs := r.buffers(workers)
	var cursor atomic.Int64
	var pushed, improved atomic.Int64
	var wg sync.WaitGroup
	var box panicBox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer box.capture()
			var p, imp int64
			buf := bufs[w]
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					break
				}
				lo := c * denseWordChunk
				hi := lo + denseWordChunk
				if hi > words {
					hi = words
				}
				cur.forEachInWordRange(lo, hi, func(u graph.VertexID) {
					p2, i2 := r.pushFull(u, &buf)
					p += p2
					imp += i2
				})
			}
			bufs[w] = buf // index-disjoint: one w per goroutine
			pushed.Add(p)
			improved.Add(imp)
		}(w)
	}
	wg.Wait()
	box.rethrow()
	r.publish(bufs)
	return pushed.Load(), improved.Load()
}
