package snapshot

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"commongraph/internal/delta"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

func toyStore(t *testing.T) *Store {
	t.Helper()
	base := graph.EdgeList{
		{Src: 0, Dst: 1, W: 1},
		{Src: 1, Dst: 2, W: 1},
		{Src: 2, Dst: 3, W: 1},
	}
	s := NewStore(5, base)
	if _, err := s.NewVersion(
		graph.EdgeList{{Src: 3, Dst: 4, W: 1}},
		graph.EdgeList{{Src: 0, Dst: 1, W: 1}},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewVersion(
		graph.EdgeList{{Src: 0, Dst: 1, W: 1}, {Src: 4, Dst: 0, W: 1}},
		graph.EdgeList{{Src: 1, Dst: 2, W: 1}},
	); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreVersions(t *testing.T) {
	s := toyStore(t)
	if s.NumVersions() != 3 || s.NumVertices() != 5 {
		t.Fatalf("versions=%d vertices=%d", s.NumVersions(), s.NumVertices())
	}
	v1, err := s.GetVersion(1)
	if err != nil {
		t.Fatal(err)
	}
	want1 := graph.EdgeList{
		{Src: 1, Dst: 2, W: 1},
		{Src: 2, Dst: 3, W: 1},
		{Src: 3, Dst: 4, W: 1},
	}
	if !graph.Equal(v1, want1) {
		t.Fatalf("v1=%v", v1)
	}
	v2, _ := s.GetVersion(2)
	want2 := graph.EdgeList{
		{Src: 0, Dst: 1, W: 1},
		{Src: 2, Dst: 3, W: 1},
		{Src: 3, Dst: 4, W: 1},
		{Src: 4, Dst: 0, W: 1},
	}
	if !graph.Equal(v2, want2) {
		t.Fatalf("v2=%v", v2)
	}
}

func TestStoreVersionOutOfRange(t *testing.T) {
	s := toyStore(t)
	if _, err := s.GetVersion(-1); err == nil {
		t.Fatal("expected error for -1")
	}
	if _, err := s.GetVersion(3); err == nil {
		t.Fatal("expected error for 3")
	}
}

func TestNewVersionValidation(t *testing.T) {
	s := toyStore(t)
	// Deleting an absent edge.
	if _, err := s.NewVersion(nil, graph.EdgeList{{Src: 1, Dst: 2, W: 1}}); err == nil {
		t.Fatal("expected error: deleting absent edge")
	}
	// Adding a present edge.
	if _, err := s.NewVersion(graph.EdgeList{{Src: 0, Dst: 1, W: 1}}, nil); err == nil {
		t.Fatal("expected error: adding present edge")
	}
	// Out-of-range vertex.
	if _, err := s.NewVersion(graph.EdgeList{{Src: 9, Dst: 1, W: 1}}, nil); err == nil {
		t.Fatal("expected error: vertex out of range")
	}
	// Overlapping add/del.
	if _, err := s.NewVersion(
		graph.EdgeList{{Src: 2, Dst: 3, W: 1}},
		graph.EdgeList{{Src: 2, Dst: 3, W: 1}},
	); err == nil {
		t.Fatal("expected error: overlapping batches")
	}
	// Failed NewVersion must not change the version count.
	if s.NumVersions() != 3 {
		t.Fatalf("failed NewVersion changed count to %d", s.NumVersions())
	}
}

func TestDiff(t *testing.T) {
	s := toyStore(t)
	add, del, err := s.Diff(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// v0 = {01,12,23}; v2 = {01,23,34,40}
	wantAdd := graph.EdgeList{{Src: 3, Dst: 4, W: 1}, {Src: 4, Dst: 0, W: 1}}
	wantDel := graph.EdgeList{{Src: 1, Dst: 2, W: 1}}
	if !graph.Equal(add.Edges(), wantAdd) {
		t.Fatalf("add=%v", add.Edges())
	}
	if !graph.Equal(del.Edges(), wantDel) {
		t.Fatalf("del=%v", del.Edges())
	}
	// Reverse direction swaps the roles.
	radd, rdel, _ := s.Diff(2, 0)
	if !radd.Equal(del) && radd.Len() != del.Len() { // same sets, roles swapped
		t.Fatalf("reverse add=%v", radd.Edges())
	}
	if !graph.Equal(rdel.Edges(), wantAdd) {
		t.Fatalf("reverse del=%v", rdel.Edges())
	}
	// Self-diff is empty.
	a, d, _ := s.Diff(1, 1)
	if a.Len() != 0 || d.Len() != 0 {
		t.Fatal("self diff nonempty")
	}
}

func TestStoreMatchesGenApply(t *testing.T) {
	// The store's materialization must agree with the generator's
	// reference Apply for every version.
	n, base := gen.RMAT(gen.DefaultRMAT(12, 40_000, 3))
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 8, Additions: 30, Deletions: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(n, base)
	for _, tr := range trs {
		if _, err := s.NewVersion(tr.Additions, tr.Deletions); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= len(trs); i++ {
		want := gen.Apply(base, trs[:i])
		got, err := s.GetVersion(i)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(got, want) {
			t.Fatalf("version %d differs: %d vs %d edges", i, len(got), len(want))
		}
	}
	// A replay of K transitions composes them over the small lists and
	// then passes over the large list at most twice, not twice per
	// transition (16 times here): it allocates under two snapshots' worth.
	last, _ := s.GetVersion(len(trs))
	if got, most := allocBytes(func() {
		s.DropCache()
		if _, err := s.GetVersion(len(trs)); err != nil {
			t.Fatal(err)
		}
	}), uint64(2*len(last))*uint64(reflect.TypeOf(graph.Edge{}).Size()); got > most {
		t.Fatalf("an 8-transition replay of a %d-edge snapshot allocated %d bytes, over two passes' %d", len(last), got, most)
	}
	// Batch accessors round-trip the transitions.
	for i, tr := range trs {
		if !graph.Equal(s.Additions(i).Edges(), tr.Additions) {
			t.Fatalf("additions %d differ", i)
		}
		if !graph.Equal(s.Deletions(i).Edges(), tr.Deletions) {
			t.Fatalf("deletions %d differ", i)
		}
	}
}

// allocBytes returns the bytes f allocates (the whole process's, so the
// caller runs nothing beside it).
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkMaterialized is the validation the head index replaced, kept as
// its oracle: the same checks in the same order, against the latest
// snapshot as a materialized list.
func checkMaterialized(n, latest int, cur graph.EdgeList, add, del *delta.Batch) error {
	for _, e := range del.Edges() {
		if !cur.Contains(e.Src, e.Dst) {
			return fmt.Errorf("snapshot: version %d does not contain deleted edge %v", latest, e)
		}
	}
	for _, e := range add.Edges() {
		if cur.Contains(e.Src, e.Dst) {
			return fmt.Errorf("snapshot: version %d already contains added edge %v", latest, e)
		}
		if int(e.Src) >= n || int(e.Dst) >= n {
			return fmt.Errorf("snapshot: edge %v out of vertex range %d", e, n)
		}
	}
	if add.Intersect(del).Len() != 0 {
		return fmt.Errorf("snapshot: additions and deletions overlap")
	}
	return nil
}

// TestHeadIndexDifferential drives seeded streams through the store and
// through the materializing oracle side by side: valid transitions
// (re-adding just-deleted edges under a new weight among them)
// interleaved with every kind of invalid one. Verdicts and error strings
// must be the oracle's at every step, across re-anchors and a dropped
// anchor, and every version must materialize to the oracle's snapshot,
// weights included.
func TestHeadIndexDifferential(t *testing.T) {
	const prefix, rounds = 6, 60
	for _, fromTransitions := range []bool{false, true} {
		t.Run(fmt.Sprintf("fromTransitions=%v", fromTransitions), func(t *testing.T) {
			n, base := gen.RMAT(gen.DefaultRMAT(8, 600, 51))
			r := gen.NewRNG(52)
			history := []graph.EdgeList{base.Clone().Canonicalize()}
			head := func() graph.EdgeList { return history[len(history)-1] }
			var gone graph.EdgeList // the last valid transition's deletions
			absent := func() graph.Edge {
				for {
					e := graph.Edge{Src: graph.VertexID(r.Intn(n)), Dst: graph.VertexID(r.Intn(n)), W: graph.Weight(1 + r.Intn(90))}
					if !head().Contains(e.Src, e.Dst) {
						return e
					}
				}
			}
			// valid draws a transition the head accepts: a few of its edges
			// leave, a few absent ones join, and half of what the previous
			// transition deleted comes back under a new weight.
			valid := func() (adds, dels graph.EdgeList) {
				for i := 0; i < 12; i++ {
					dels = append(dels, head()[r.Intn(len(head()))])
				}
				for i := 0; i < 8; i++ {
					adds = append(adds, absent())
				}
				for i, e := range gone {
					if i%2 == 0 {
						adds = append(adds, graph.Edge{Src: e.Src, Dst: e.Dst, W: e.W + 100})
					}
				}
				return adds.Canonicalize(), dels.Canonicalize()
			}
			accept := func(adds, dels graph.EdgeList) {
				history = append(history, graph.Union(graph.Minus(head(), dels), adds))
				gone = dels
			}

			var s *Store
			if fromTransitions {
				var as, ds []graph.EdgeList
				for i := 0; i < prefix; i++ {
					a, d := valid()
					accept(a, d)
					as, ds = append(as, a), append(ds, d)
				}
				var err error
				if s, err = NewStoreFromTransitions(n, base, as, ds); err != nil {
					t.Fatal(err)
				}
			} else {
				s = NewStore(n, base)
			}
			// check holds the store's verdict on a batch against the oracle's.
			check := func(what string, adds, dels graph.EdgeList) error {
				t.Helper()
				want := checkMaterialized(n, len(history)-1, head(), delta.NewBatch(adds), delta.NewBatch(dels))
				got := s.CheckBatch(adds, dels)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("version %d, %s: store says %v, oracle says %v", len(history)-1, what, got, want)
				}
				return want
			}
			with := func(l graph.EdgeList, e ...graph.Edge) graph.EdgeList {
				return append(l.Clone(), e...).Canonicalize()
			}
			reanchors := 0
			for round := 0; round < rounds; round++ {
				if round == rounds/2 {
					s.DropCache()
					if s.anchor != nil {
						t.Fatal("DropCache kept the anchor")
					}
				}
				adds, dels := valid()
				present := head()[r.Intn(len(head()))]
				for present.Src == dels[0].Src && present.Dst == dels[0].Dst {
					present = head()[r.Intn(len(head()))]
				}
				outside := graph.Edge{Src: graph.VertexID(n + r.Intn(3)), Dst: 0, W: 1}
				invalid := []struct {
					what       string
					adds, dels graph.EdgeList
				}{
					{"delete absent", adds, with(dels, absent())},
					{"add present", with(adds, present), dels},
					{"add and delete one present edge", with(adds, dels[0]), dels},
					{"add and delete one absent edge", adds, with(dels, adds[0])},
					{"out of range", with(adds, outside), dels},
					{"out of range and delete absent", with(adds, outside), with(dels, absent())},
				}
				if len(gone) > 1 {
					// gone[0] came back in this transition, gone[1] did not.
					invalid = append(invalid, struct {
						what       string
						adds, dels graph.EdgeList
					}{"delete a just-deleted edge", nil, graph.EdgeList{gone[1]}})
				}
				for _, c := range invalid {
					if check(c.what, c.adds, c.dels) == nil {
						t.Fatalf("version %d: %s was accepted", len(history)-1, c.what)
					}
					if _, err := s.NewVersion(c.adds, c.dels); err == nil || s.NumVersions() != len(history) {
						t.Fatalf("version %d: NewVersion took %s (err %v, %d versions)", len(history)-1, c.what, err, s.NumVersions())
					}
				}
				if err := check("valid", adds, dels); err != nil {
					t.Fatalf("version %d: valid transition refused: %v", len(history)-1, err)
				}
				if s.anchor == nil {
					t.Fatal("a check left the head index without its anchor")
				}
				was := s.anchorAt
				if _, err := s.NewVersion(adds, dels); err != nil {
					t.Fatal(err)
				}
				accept(adds, dels)
				if s.anchorAt != was {
					reanchors++
					if s.anchorAt != len(history)-1 || len(s.touched) != 0 {
						t.Fatalf("re-anchored at %d with %d touched edges, head is %d", s.anchorAt, len(s.touched), len(history)-1)
					}
				}
			}
			if reanchors < 2 {
				t.Fatalf("%d re-anchors in %d transitions: the stream never outgrew the ratio", reanchors, rounds)
			}
			for i, want := range history {
				got, err := s.GetVersion(i)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(append(graph.EdgeList{}, got...), append(graph.EdgeList{}, want...)) {
					t.Fatalf("version %d differs from the oracle's snapshot", i)
				}
			}
		})
	}
}

func TestDropCache(t *testing.T) {
	s := toyStore(t)
	v2a, _ := s.GetVersion(2)
	s.DropCache()
	v2b, _ := s.GetVersion(2)
	if !graph.Equal(v2a, v2b) {
		t.Fatal("cache drop changed materialization")
	}
}

func TestPair(t *testing.T) {
	s := toyStore(t)
	p, err := s.Pair(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVertices() != 5 || p.NumEdges() != 4 {
		t.Fatalf("pair n=%d m=%d", p.NumVertices(), p.NumEdges())
	}
	if _, err := s.Pair(99); err == nil {
		t.Fatal("expected error")
	}
}

func TestCacheEvictionKeepsResultsCorrect(t *testing.T) {
	// Materialize versions in a pattern that forces eviction, and verify
	// every answer against the generator's reference Apply.
	n, base := gen.RMAT(gen.DefaultRMAT(8, 600, 9))
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 12, Additions: 15, Deletions: 15, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(n, base)
	for _, tr := range trs {
		if _, err := s.NewVersion(tr.Additions, tr.Deletions); err != nil {
			t.Fatal(err)
		}
	}
	order := []int{12, 3, 7, 1, 9, 12, 0, 5, 11, 2, 12, 3}
	for _, i := range order {
		got, err := s.GetVersion(i)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(got, gen.Apply(base, trs[:i])) {
			t.Fatalf("version %d wrong after eviction churn", i)
		}
	}
	// The cache itself must stay bounded.
	s.mu.RLock()
	cached := len(s.versions)
	s.mu.RUnlock()
	if cached > maxCached+1 {
		t.Fatalf("cache holds %d versions, cap is %d+1", cached, maxCached)
	}
}

func TestNewStoreFromTransitions(t *testing.T) {
	n, base := gen.RMAT(gen.DefaultRMAT(8, 600, 41))
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: 5, Additions: 20, Deletions: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	adds := make([]graph.EdgeList, len(trs))
	dels := make([]graph.EdgeList, len(trs))
	for i, tr := range trs {
		adds[i] = tr.Additions
		dels[i] = tr.Deletions
	}
	fast, err := NewStoreFromTransitions(n, base, adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	slow := NewStore(n, base)
	for _, tr := range trs {
		if _, err := slow.NewVersion(tr.Additions, tr.Deletions); err != nil {
			t.Fatal(err)
		}
	}
	if fast.NumVersions() != slow.NumVersions() {
		t.Fatalf("versions %d vs %d", fast.NumVersions(), slow.NumVersions())
	}
	for v := 0; v < fast.NumVersions(); v++ {
		fe, _ := fast.GetVersion(v)
		se, _ := slow.GetVersion(v)
		if !graph.Equal(fe, se) {
			t.Fatalf("version %d differs", v)
		}
	}
	if _, err := NewStoreFromTransitions(n, base, adds, dels[:2]); err == nil {
		t.Fatal("mismatched batch slices accepted")
	}
}
