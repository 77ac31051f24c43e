// Package snapshot implements the evolving-graph store: the initial
// snapshot plus the per-transition update batches, behind the version
// control API of Table 1 in the paper (get_version, diff, new_version).
//
// The store never materializes all snapshots; it keeps the initial edge
// list and the Δ batches, and materializes any requested version on
// demand. Each edge is stored once (the paper's space-optimality claim for
// the common-graph representation is realized one level up, in
// internal/core, which consumes this store). new_version checks a batch
// against an anchor version plus the edges touched since.
package snapshot

import (
	"fmt"
	"sync"

	"commongraph/internal/delta"
	"commongraph/internal/faults"
	"commongraph/internal/graph"
)

// Store holds an evolving graph as snapshot 0 plus transitions.
// It is safe for concurrent readers; NewVersion requires exclusive use.
type Store struct {
	mu   sync.RWMutex
	n    int
	base graph.EdgeList // canonical snapshot 0
	adds []*delta.Batch // adds[i], dels[i] turn version i into i+1
	dels []*delta.Batch

	// cache of materialized versions, filled lazily. Version 0 is always
	// cached; at most maxCached others are retained (FIFO eviction), so a
	// long store never holds every snapshot in memory at once.
	versions   map[int]graph.EdgeList
	cacheOrder []int

	// The head index: the latest version is anchor, version anchorAt
	// materialized, but for touched, every edge a transition has added
	// (true) or deleted (false) since. A commit looks each batch edge up
	// (the map, else a binary search of anchor) and writes it to the map:
	// it costs its batch. anchor and touched are nil until the first
	// validation and after DropCache; they cannot go stale, because only
	// NewVersion appends a transition, under mu.
	anchor   graph.EdgeList
	anchorAt int
	touched  map[uint64]bool
}

const (
	// maxCached bounds the number of non-zero versions kept materialized.
	maxCached = 4
	// reanchorRatio bounds the head index: once touched holds more than
	// 1/reanchorRatio as many edges as anchor, the head is materialized
	// (one pass) and becomes the anchor.
	reanchorRatio = 8
)

// NewStore creates a store over n vertices whose version 0 is initial.
func NewStore(n int, initial graph.EdgeList) *Store {
	base := initial.Clone().Canonicalize()
	return &Store{
		n:        n,
		base:     base,
		versions: map[int]graph.EdgeList{0: base},
	}
}

// NewStoreFromTransitions creates a store from a pre-validated update
// stream without the per-transition consistency materialization NewVersion
// performs — for trusted producers (the workload generator, whose streams
// are consistent by construction). adds and dels must be equal-length
// slices of canonical batches; adds[i]/dels[i] turn version i into i+1.
func NewStoreFromTransitions(n int, initial graph.EdgeList, adds, dels []graph.EdgeList) (*Store, error) {
	if len(adds) != len(dels) {
		return nil, fmt.Errorf("snapshot: %d addition batches vs %d deletion batches", len(adds), len(dels))
	}
	s := NewStore(n, initial)
	for i := range adds {
		ab, err := delta.FromCanonical(adds[i])
		if err != nil {
			return nil, fmt.Errorf("snapshot: transition %d additions: %w", i, err)
		}
		db, err := delta.FromCanonical(dels[i])
		if err != nil {
			return nil, fmt.Errorf("snapshot: transition %d deletions: %w", i, err)
		}
		s.adds = append(s.adds, ab)
		s.dels = append(s.dels, db)
	}
	return s, nil
}

// NumVertices returns the store's vertex-space size.
func (s *Store) NumVertices() int { return s.n }

// NumVersions returns the number of snapshots (transitions + 1).
func (s *Store) NumVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.adds) + 1
}

// Additions returns the Δ+ batch of transition i (version i → i+1).
func (s *Store) Additions(i int) *delta.Batch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.adds[i]
}

// Deletions returns the Δ− batch of transition i (version i → i+1).
func (s *Store) Deletions(i int) *delta.Batch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dels[i]
}

// NewVersion appends a snapshot derived from the latest one by applying
// the given batches (Table 1's new_version(Δ+, Δ−)). It validates that
// deletions exist in and additions are absent from the latest snapshot.
func (s *Store) NewVersion(additions, deletions graph.EdgeList) (int, error) {
	// Fault-injection point: the store write is where a real backend
	// (disk, replication) fails; armed tests drive the error path before
	// any state is touched, so a failed NewVersion never leaves a partial
	// version behind.
	if err := faults.Check(faults.StoreNewVersion); err != nil {
		return 0, fmt.Errorf("snapshot: new version: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	add := delta.NewBatch(additions)
	del := delta.NewBatch(deletions)
	if err := s.checkBatchLocked(add, del); err != nil {
		return 0, err
	}
	s.adds = append(s.adds, add)
	s.dels = append(s.dels, del)
	for _, e := range del.Edges() {
		s.touched[edgeKey(e)] = false
	}
	for _, e := range add.Edges() {
		s.touched[edgeKey(e)] = true
	}
	if len(s.touched)*reanchorRatio > len(s.anchor) {
		s.anchor, s.anchorAt = s.netLocked(s.anchorAt, len(s.adds)).Apply(s.anchor), len(s.adds)
		clear(s.touched) // keeps the buckets for the next run of commits
	}
	return len(s.adds), nil
}

// CheckBatch validates a prospective transition against the latest
// snapshot without applying it — the dry-run half of NewVersion, for
// callers that must commit the batch somewhere else (a durable store)
// before mutating in-memory state.
func (s *Store) CheckBatch(additions, deletions graph.EdgeList) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkBatchLocked(delta.NewBatch(additions), delta.NewBatch(deletions))
}

func (s *Store) checkBatchLocked(add, del *delta.Batch) error {
	latest := len(s.adds)
	if s.anchor == nil {
		s.anchor, s.anchorAt, s.touched = s.materializeLocked(latest), latest, map[uint64]bool{}
	}
	for _, e := range del.Edges() {
		if !s.headContainsLocked(e) {
			return fmt.Errorf("snapshot: version %d does not contain deleted edge %v", latest, e)
		}
	}
	// An edge in both batches fails one of the two loops.
	for _, e := range add.Edges() {
		if s.headContainsLocked(e) {
			return fmt.Errorf("snapshot: version %d already contains added edge %v", latest, e)
		}
		if int(e.Src) >= s.n || int(e.Dst) >= s.n {
			return fmt.Errorf("snapshot: edge %v out of vertex range %d", e, s.n)
		}
	}
	return nil
}

// headContainsLocked reports whether the latest version holds e.
func (s *Store) headContainsLocked(e graph.Edge) bool {
	if in, ok := s.touched[edgeKey(e)]; ok {
		return in
	}
	return s.anchor.Contains(e.Src, e.Dst)
}

func edgeKey(e graph.Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

// GetVersion materializes snapshot i as a canonical edge list
// (Table 1's get_version). The result is cached; do not modify it.
func (s *Store) GetVersion(i int) (graph.EdgeList, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i > len(s.adds) {
		return nil, fmt.Errorf("snapshot: version %d out of range [0,%d]", i, len(s.adds))
	}
	return s.materializeLocked(i), nil
}

// materializeLocked returns version i, computing from the nearest lower
// materialized version — a cached one or the head index's anchor. The
// transitions between are composed into one net delta over the small
// lists and applied to the big list in a single pass, whatever their
// number. Only version i itself enters the cache, which is bounded by
// maxCached entries besides version 0.
func (s *Store) materializeLocked(i int) graph.EdgeList {
	if v, ok := s.versions[i]; ok {
		return v
	}
	from := 0
	for j := i - 1; j > 0; j-- {
		if _, ok := s.versions[j]; ok {
			from = j
			break
		}
	}
	cur := s.versions[from]
	if s.anchor != nil && s.anchorAt <= i && s.anchorAt > from {
		from, cur = s.anchorAt, s.anchor
	}
	if from < i {
		cur = s.netLocked(from, i).Apply(cur)
	}
	s.cacheLocked(i, cur)
	return cur
}

// netLocked composes the transitions from version from to version i.
func (s *Store) netLocked(from, i int) delta.Net {
	return delta.Compose(i-from, func(t int) delta.Net {
		return delta.Net{Adds: s.adds[from+t].Edges(), Dels: s.dels[from+t].Edges()}
	})
}

// cacheLocked inserts a materialized version that is not cached (so not
// version 0), evicting the oldest cached one beyond the cap.
func (s *Store) cacheLocked(i int, edges graph.EdgeList) {
	s.versions[i] = edges
	s.cacheOrder = append(s.cacheOrder, i)
	for len(s.cacheOrder) > maxCached {
		evict := s.cacheOrder[0]
		s.cacheOrder = s.cacheOrder[1:]
		delete(s.versions, evict)
	}
}

// Diff computes the batches that turn version i into version j
// (Table 1's diff): the returned additions are in j but not i, deletions
// in i but not j. i and j need not be adjacent or ordered.
func (s *Store) Diff(i, j int) (additions, deletions *delta.Batch, err error) {
	gi, err := s.GetVersion(i)
	if err != nil {
		return nil, nil, err
	}
	gj, err := s.GetVersion(j)
	if err != nil {
		return nil, nil, err
	}
	// Minus over canonical lists is canonical by construction.
	return delta.FromMerged(graph.Minus(gj, gi)),
		delta.FromMerged(graph.Minus(gi, gj)), nil
}

// Pair materializes snapshot i as a traversal-ready CSR pair.
func (s *Store) Pair(i int) (*graph.Pair, error) {
	edges, err := s.GetVersion(i)
	if err != nil {
		return nil, err
	}
	return graph.NewPair(s.n, edges), nil
}

// DropCache releases materialized snapshots other than version 0 and the
// head index (the next validation rebuilds it), for
// long-lived stores that only need the batch view.
func (s *Store) DropCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions = map[int]graph.EdgeList{0: s.base}
	s.cacheOrder = nil
	s.anchor, s.touched = nil, nil
}
