package engine

import "commongraph/internal/graph"

// runAsync drains a FIFO worklist to fixpoint on the calling goroutine —
// the asynchronous mode of §4.3, where an update is visible within the
// pass. The pass consumes the seed frontier: its bitset becomes the
// in-queue set (a vertex's bit is set while it waits and cleared just
// before its value is read, so a later improvement re-enqueues it) and its
// member list the head of the queue, so a small incremental batch pays
// O(|batch|) setup and allocates nothing beyond the queue's growth, which
// the frontier keeps as its list's storage. The pass leaves seed empty.
func runAsync(st *State, seed *frontier, layers []graph.Rows) Stats {
	var stats Stats
	alg, id := st.a, st.a.Identity()
	inQ := seed.bits
	queue := seed.members()
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		inQ[u>>6] &^= 1 << (u & 63)
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
					stats.Improved++
					if w, bit := &inQ[v>>6], uint64(1)<<(v&63); *w&bit == 0 {
						*w |= bit
						queue = append(queue, v)
					}
				}
			}
			stats.EdgesPushed += int64(len(ts))
		}
	}
	seed.sparse, seed.dense = queue[:0], false
	return stats
}
