package snapshot

import (
	"reflect"
	"testing"

	"commongraph/internal/delta"
	"commongraph/internal/graph"
)

// FuzzHeadIndex drives the head index with fuzzer-shaped transitions over
// a 10-vertex graph and holds it against a plain map of the head's edges.
// The input is 4-byte records (op, src, dst, weight): ops stage an edge in
// the pending additions or deletions (any edge, or one the head holds),
// commit the pending batches as they are, commit them repaired into a
// valid transition, or drop the cache. Sources run two past the vertex
// range, so a record can delete an absent edge, add a present one, add and
// delete one edge, or leave the range. Every commit must get the oracle's
// verdict from CheckBatch and from NewVersion; after it, every edge of the
// vertex space must be in the head exactly when the oracle holds it, and a
// refused commit leaves the version count alone. The head must then
// materialize to the oracle's edges, weights included, and every stream
// ends by dropping the cache and deleting the whole head, which re-anchors.
func FuzzHeadIndex(f *testing.F) {
	f.Add([]byte{0, 1, 5, 5, 2, 3, 0, 0, 4, 0, 0, 0, 0, 2, 2, 1, 7, 0, 0, 0})                // valid: add one, delete one present
	f.Add([]byte{1, 4, 4, 0, 4, 0, 0, 0})                                                    // delete absent
	f.Add([]byte{3, 5, 0, 0, 5, 0, 0, 0, 2, 5, 0, 0, 0, 7, 7, 3, 7, 0, 0, 0})                // add present, then a valid one
	f.Add([]byte{0, 3, 9, 2, 1, 3, 9, 2, 4, 0, 0, 0, 2, 1, 0, 0, 3, 1, 0, 0, 4, 0, 0, 0})    // add and delete one edge, absent then present
	f.Add([]byte{0, 11, 1, 1, 4, 0, 0, 0, 0, 10, 3, 1, 1, 11, 0, 0, 4, 0, 0, 0})             // out of range, as an addition and a deletion
	f.Add([]byte{2, 0, 0, 0, 7, 0, 0, 0, 6, 0, 0, 0, 0, 6, 6, 9, 2, 1, 0, 0, 7, 0, 0, 0})    // valid, dropped cache, valid
	f.Add([]byte{2, 0, 0, 0, 2, 1, 0, 0, 7, 0, 0, 0, 0, 0, 1, 9, 4, 0, 0, 0, 6, 0, 0, 0, 3}) // delete, then re-add under a new weight
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 10
		var base graph.EdgeList
		for u := 0; u < n; u++ {
			base = append(base,
				graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID((u + 1) % n), W: 1},
				graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID((u + 3) % n), W: 2})
		}
		s := NewStore(n, base)
		head := map[uint64]graph.Weight{}
		for _, e := range base {
			head[edgeKey(e)] = e.W
		}
		present := func() graph.EdgeList { // the oracle's head, canonical
			var l graph.EdgeList
			for k, w := range head {
				l = append(l, graph.Edge{Src: graph.VertexID(k >> 32), Dst: graph.VertexID(uint32(k)), W: w})
			}
			return l.Canonicalize()
		}
		reanchors := 0
		commit := func(adds, dels graph.EdgeList) {
			t.Helper()
			a, d := delta.NewBatch(adds).Edges(), delta.NewBatch(dels).Edges()
			valid := true
			for _, e := range d {
				_, in := head[edgeKey(e)]
				valid = valid && in
			}
			for _, e := range a {
				_, in := head[edgeKey(e)]
				valid = valid && !in && int(e.Src) < n && int(e.Dst) < n
			}
			if err := s.CheckBatch(adds, dels); (err == nil) != valid {
				t.Fatalf("CheckBatch(+%v, -%v) = %v, oracle says valid=%v", a, d, err, valid)
			}
			versions, was := s.NumVersions(), s.anchorAt
			if _, err := s.NewVersion(adds, dels); (err == nil) != valid {
				t.Fatalf("NewVersion(+%v, -%v) = %v, oracle says valid=%v", a, d, err, valid)
			}
			if !valid {
				if s.NumVersions() != versions {
					t.Fatalf("a refused transition moved the version count %d -> %d", versions, s.NumVersions())
				}
			} else {
				for _, e := range d {
					delete(head, edgeKey(e))
				}
				for _, e := range a {
					head[edgeKey(e)] = e.W
				}
				if s.anchorAt != was {
					reanchors++
				}
			}
			// A deletion of one edge passes validation exactly when the head
			// holds it.
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					e := graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)}
					_, want := head[edgeKey(e)]
					if got := s.CheckBatch(nil, graph.EdgeList{e}) == nil; got != want {
						t.Fatalf("version %d: edge %d->%d in head %v, oracle says %v", s.NumVersions()-1, u, v, got, want)
					}
				}
			}
		}

		var adds, dels graph.EdgeList
		for ; len(data) >= 4; data = data[4:] {
			e := graph.Edge{Src: graph.VertexID(data[1] % (n + 2)), Dst: graph.VertexID(data[2] % n), W: graph.Weight(data[3])}
			switch data[0] % 8 {
			case 0:
				adds = append(adds, e)
			case 1:
				dels = append(dels, e)
			case 2, 3: // a present edge, staged for deletion or (invalid) addition
				if p := present(); len(p) > 0 {
					if e = p[int(data[1])%len(p)]; data[0]%8 == 2 {
						dels = append(dels, e)
					} else {
						adds = append(adds, e)
					}
				}
			case 4, 5:
				commit(adds, dels)
				adds, dels = nil, nil
			case 6:
				s.DropCache()
			case 7: // keep only what the head accepts
				var a, d graph.EdgeList
				for _, e := range delta.NewBatch(dels).Edges() {
					if _, in := head[edgeKey(e)]; in {
						d = append(d, e)
					}
				}
				for _, e := range delta.NewBatch(adds).Edges() {
					if _, in := head[edgeKey(e)]; !in && int(e.Src) < n && !d.Contains(e.Src, e.Dst) {
						a = append(a, e)
					}
				}
				if len(a)+len(d) > 0 {
					commit(a, d)
				}
				adds, dels = nil, nil
			}
		}

		got, err := s.GetVersion(s.NumVersions() - 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := present(); !reflect.DeepEqual(append(graph.EdgeList{}, got...), want) {
			t.Fatalf("the head materializes to %v, oracle holds %v", got, want)
		}
		// Deleting the whole head touches every edge the anchor has, so it
		// re-anchors (or, on an empty head, adds one edge to an empty anchor).
		s.DropCache()
		tail := graph.EdgeList{{Src: 0, Dst: 0, W: 7}}
		if _, in := head[0]; in {
			tail = nil
		}
		commit(tail, present())
		if reanchors == 0 {
			t.Fatal("the stream never re-anchored the head index")
		}
	})
}
