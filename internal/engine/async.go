package engine

import (
	"sync"
	"sync/atomic"

	"commongraph/internal/delta"
	"commongraph/internal/graph"
)

// atomicBitset is the membership filter of the async worklist: a bit per
// vertex, set when the vertex is enqueued and cleared just before its
// value is read, so an improvement landing mid-processing re-enqueues the
// vertex. All operations are CAS-based (the go directive predates
// atomic.AndUint64).
type atomicBitset []uint64

func newAtomicBitset(n int) atomicBitset {
	return make(atomicBitset, (n+63)/64)
}

// trySet sets v's bit, reporting whether it was newly set.
func (b atomicBitset) trySet(v graph.VertexID) bool {
	w := &b[v>>6]
	mask := uint64(1) << (v & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// clear clears v's bit.
func (b atomicBitset) clear(v graph.VertexID) {
	w := &b[v>>6]
	mask := uint64(1) << (v & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask == 0 {
			return
		}
		if atomic.CompareAndSwapUint64(w, old, old&^mask) {
			return
		}
	}
}

// seedQueue drains the seed frontier into an initial worklist, marking
// membership bits. The frontier is already duplicate-free, so this is a
// straight copy for sparse seeds.
func seedQueue(seed *frontier, inQ atomicBitset) []graph.VertexID {
	queue := make([]graph.VertexID, 0, seed.count())
	collect := func(v graph.VertexID) {
		if inQ.trySet(v) {
			queue = append(queue, v)
		}
	}
	if seed.isSparse() {
		for _, v := range seed.list() {
			collect(v)
		}
	} else {
		seed.forEachInWordRange(0, seed.words(), collect)
	}
	return queue
}

// runAsync drains a FIFO worklist to fixpoint on the calling goroutine —
// the asynchronous mode of §4.3, where an update is visible within the
// pass. Membership is a bitset (not a []bool) and seeds come from the
// frontier's sparse list, so a small incremental batch pays O(|batch|)
// setup beyond the n/8-byte filter, not an O(V) scan.
func runAsync(g delta.Graph, st *State, seed *frontier, layers []flatLayer) Stats {
	var stats Stats
	alg := st.a
	id := alg.Identity()
	min := st.minimize()
	inQ := newAtomicBitset(g.NumVertices())
	queue := seedQueue(seed, inQ)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		inQ.clear(u)
		uval := st.Value(u)
		if uval == id {
			continue
		}
		if layers == nil {
			g.OutEdges(u, func(v graph.VertexID, w graph.Weight) {
				stats.EdgesPushed++
				cand := alg.Propagate(uval, w)
				if st.improveSeq(v, cand, u, min) {
					stats.Improved++
					if inQ.trySet(v) {
						queue = append(queue, v)
					}
				}
			})
			continue
		}
		for li := range layers {
			L := &layers[li]
			lo, hi := L.offs[u], L.offs[u+1]
			ts := L.tgts[lo:hi]
			ws := L.wts[lo:hi]
			for i, v := range ts {
				cand := alg.Propagate(uval, ws[i])
				if st.improveSeq(v, cand, u, min) {
					stats.Improved++
					if inQ.trySet(v) {
						queue = append(queue, v)
					}
				}
			}
			stats.EdgesPushed += int64(len(ts))
		}
	}
	return stats
}

// asyncGrab is how many vertices a parallel async worker pops per queue
// visit — large enough to amortize the lock, small enough to keep work
// spread when the list is short.
const asyncGrab = 64

// runAsyncParallel drains one shared worklist with a bounded pool of
// workers (Options.AsyncWorkers). Workers pop batches under a mutex,
// process them against the shared atomic state (improvements are visible
// within the pass, exactly like the sequential drain), and push newly
// activated vertices back. The membership bit of a vertex is cleared
// before its value is read, so a concurrent improvement re-enqueues it —
// no update is lost. Termination: the queue is empty and no worker holds
// a batch. Monotonic fixpoint values are unique, so results match the
// sequential drain regardless of interleaving; only Stats counters vary.
func runAsyncParallel(g delta.Graph, st *State, seed *frontier, layers []flatLayer, workers int) Stats {
	alg := st.a
	id := alg.Identity()
	min := st.minimize()
	inQ := newAtomicBitset(g.NumVertices())
	queue := seedQueue(seed, inQ)
	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		active int
	)
	var pushed, improved atomic.Int64
	var wg sync.WaitGroup
	var box panicBox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic between active++ and active-- would leave the pool's
			// termination condition unreachable: sibling workers sleep in
			// cond.Wait forever and wg.Wait never returns. The deferred
			// recovery releases the slot and wakes everyone before handing
			// the panic to the coordinator via the box.
			holding := false
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				box.store(r)
				mu.Lock()
				if holding {
					active--
				}
				cond.Broadcast()
				mu.Unlock()
			}()
			var p, imp int64
			local := make([]graph.VertexID, 0, asyncGrab)
			out := make([]graph.VertexID, 0, 4*asyncGrab)
			for {
				mu.Lock()
				for len(queue) == 0 && active > 0 {
					cond.Wait() //cgvet:ignore goleak -- woken by the Broadcast every worker issues when it finishes a batch or exits; the last active worker always broadcasts, so no waiter sleeps past termination
				}
				if len(queue) == 0 {
					// No work and no producer left: the pass is done.
					mu.Unlock()
					cond.Broadcast()
					break
				}
				grab := asyncGrab
				if grab > len(queue) {
					grab = len(queue)
				}
				local = append(local[:0], queue[len(queue)-grab:]...)
				queue = queue[:len(queue)-grab]
				active++
				holding = true
				mu.Unlock()

				out = out[:0]
				for _, u := range local {
					inQ.clear(u)
					uval := st.Value(u)
					if uval == id {
						continue
					}
					if layers == nil {
						g.OutEdges(u, func(v graph.VertexID, w graph.Weight) {
							p++
							cand := alg.Propagate(uval, w)
							if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
								imp++
								if inQ.trySet(v) {
									out = append(out, v)
								}
							}
						})
						continue
					}
					for li := range layers {
						L := &layers[li]
						lo, hi := L.offs[u], L.offs[u+1]
						ts := L.tgts[lo:hi]
						ws := L.wts[lo:hi]
						for i, v := range ts {
							cand := alg.Propagate(uval, ws[i])
							if st.Improves(v, cand, min) && st.TryImprove(v, cand, u) {
								imp++
								if inQ.trySet(v) {
									out = append(out, v)
								}
							}
						}
						p += int64(len(ts))
					}
				}

				mu.Lock()
				active--
				holding = false
				if len(out) > 0 {
					queue = append(queue, out...)
					cond.Broadcast()
				} else if len(queue) == 0 && active == 0 {
					cond.Broadcast()
				}
				mu.Unlock()
			}
			pushed.Add(p)
			improved.Add(imp)
		}()
	}
	wg.Wait()
	box.rethrow()
	return Stats{EdgesPushed: pushed.Load(), Improved: improved.Load()}
}
