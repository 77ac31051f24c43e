package snapshot

import (
	"testing"

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
	n, base := gen.RMAT(gen.DefaultRMAT(9, 1500, 3))
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
	// A replay of any length works in two buffers: it allocates two
	// lists, not two per transition (16 here).
	if allocs := testing.AllocsPerRun(5, func() {
		s.DropCache()
		if _, err := s.GetVersion(len(trs)); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Fatalf("an 8-transition replay made %v allocations", allocs)
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
