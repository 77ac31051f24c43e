package engine

import (
	"math/bits"
	"sync"

	"commongraph/internal/graph"
)

// qEntry is one queued vertex with the key of the value it was queued at.
type qEntry struct {
	key uint32
	v   graph.VertexID
}

// radixQueue is the monotone priority queue of the ordered solve: a radix
// heap (Ahuja, Mehlhorn, Orlin & Tarjan 1990) over 32-bit keys. Bucket 0
// holds the keys equal to last, the last key popped; bucket b > 0 holds
// the keys whose highest bit differing from last is bit b-1. Popping an
// empty bucket 0 refills it from the lowest non-empty bucket, whose minimum
// becomes last, and every entry moves to a strictly lower bucket — so an
// entry moves at most 32 times, whatever the keys' range.
//
// The heap is monotone: a key below last cannot be bucketed. Such a key
// goes to side, which pop drains first. It only arrives when a Propagate
// improves on its input (a negative SSSP weight read from a file, say);
// the pass is then label-correcting and still reaches the fixpoint.
type radixQueue struct {
	last    uint32
	n       int // entries in the buckets
	buckets [33][]qEntry
	side    []qEntry
	// spilled counts the entries ever sent to side: zero for every
	// algorithm whose Propagate never improves on its input.
	spilled int
}

// push queues v at key.
func (q *radixQueue) push(key uint32, v graph.VertexID) {
	if key < q.last {
		q.side = append(q.side, qEntry{key, v})
		q.spilled++
		return
	}
	b := bits.Len32(key ^ q.last)
	q.buckets[b] = append(q.buckets[b], qEntry{key, v})
	q.n++
}

// pop removes an entry with the least key — a side entry first, while
// there is one — and reports false once the queue is empty.
func (q *radixQueue) pop() (qEntry, bool) {
	if k := len(q.side) - 1; k >= 0 {
		e := q.side[k]
		q.side = q.side[:k]
		return e, true
	}
	if q.n == 0 {
		return qEntry{}, false
	}
	if len(q.buckets[0]) == 0 {
		b := 1
		for len(q.buckets[b]) == 0 {
			b++
		}
		bk := q.buckets[b]
		m := bk[0].key
		for _, e := range bk[1:] {
			m = min(m, e.key)
		}
		q.last = m
		for _, e := range bk {
			nb := bits.Len32(e.key ^ m)
			q.buckets[nb] = append(q.buckets[nb], e)
		}
		q.buckets[b] = bk[:0]
	}
	b0 := q.buckets[0]
	e := b0[len(b0)-1]
	q.buckets[0] = b0[:len(b0)-1]
	q.n--
	return e, true
}

// maxFreeQueues bounds the queue free list: one ordered pass runs per
// goroutine, so a few cover the solves a process runs at once.
const maxFreeQueues = 4

// freeQueues recycles radix queues, buckets and all, across ordered
// passes. It is a bounded free list, not a sync.Pool, for the reason
// freeStates is: a garbage collection empties a pool, and the next solve
// then grows its 33 buckets again from nothing — about half a megabyte on
// a live slide's read, and the bimodal alloc_mb_per_op of a warm op.
var freeQueues struct {
	sync.Mutex
	list []*radixQueue
}

// getQueue returns an empty queue, last rewound: a recycled one when the
// free list holds one.
func getQueue() *radixQueue {
	freeQueues.Lock()
	var q *radixQueue
	if last := len(freeQueues.list) - 1; last >= 0 {
		q, freeQueues.list[last] = freeQueues.list[last], nil
		freeQueues.list = freeQueues.list[:last]
	}
	freeQueues.Unlock()
	if q == nil {
		return new(radixQueue)
	}
	q.last, q.spilled = 0, 0
	return q
}

// putQueue hands back a queue a pass drained; the list drops it when full.
func putQueue(q *radixQueue) {
	freeQueues.Lock()
	if len(freeQueues.list) < maxFreeQueues {
		freeQueues.list = append(freeQueues.list, q)
	}
	freeQueues.Unlock()
}

// keyMask maps a value to its queue key, uint32(v) ^ keyMask: flipping the
// sign bit orders int32 values as uint32 keys, and flipping the other 31
// instead complements that order, so the best value has the least key in
// either direction.
func keyMask(minimize bool) uint32 {
	if minimize {
		return 1 << 31
	}
	return 1<<31 - 1
}

// runOrdered drives the seeds to fixpoint on the calling goroutine, popping
// vertices in value order: the label-setting pass of a from-scratch solve.
// An entry whose key no longer matches its vertex's value is stale and
// skipped. TryImprove stores only strict improvements, so each value a
// vertex holds is queued once, and once a vertex is popped no later pop
// can improve it unless Propagate improves on its input: each reached
// vertex relaxes its row once and EdgesPushed is their out-degree sum.
func runOrdered(st *State, seeds []graph.VertexID, layers []graph.Rows, q *radixQueue) Stats {
	var stats Stats
	alg, id := st.a, st.a.Identity()
	mask := keyMask(st.min)
	for _, v := range seeds {
		if val := st.Value(v); val != id {
			q.push(uint32(val)^mask, v)
		}
	}
	for {
		e, ok := q.pop()
		if !ok {
			return stats
		}
		u := e.v
		uval := st.Value(u)
		if uint32(uval)^mask != e.key {
			continue
		}
		for li := range layers {
			L := &layers[li]
			lo, hi := L.Starts[u], L.Ends[u]
			ts := L.Targets[lo:hi]
			ws := L.Weights[lo:hi]
			for i, v := range ts {
				cand := alg.Propagate(uval, ws[i])
				if st.TryImprove(v, cand, u) {
					stats.Improved++
					q.push(uint32(cand)^mask, v)
				}
			}
			stats.EdgesPushed += int64(len(ts))
		}
	}
}
