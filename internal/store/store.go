package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"commongraph/internal/delta"
	"commongraph/internal/faults"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
	"commongraph/internal/snapshot"
)

// ErrFenced is returned by every write path of a store that has observed
// a higher replication epoch than its own: a primary superseded by a
// promoted follower must never commit again (the double-commit the epoch
// fence exists to exclude). The fence is persisted in the manifest, so a
// restarted stale primary stays fenced. errors.Is(err, ErrFenced) holds
// on every wrapped fencing rejection.
var ErrFenced = errors.New("store: fenced by a higher replication epoch")

// Store is an open durable snapshot store. All methods are safe for
// concurrent use; writers (AppendBatch, Journal, CompactTo) serialize on
// an internal lock while loaded segments are immutable and shared.
type Store struct {
	dir string

	mu      sync.Mutex
	man     manifest
	wal     *wal
	origin  int // manifest base version at open time (window index anchor)
	pending []RawUpdate

	baseCache graph.EdgeList
	ovlCache  map[int][2]graph.EdgeList

	// compactMu serializes CompactTo; it is taken before mu and held
	// across the fold and the base-file write that mu is released for.
	compactMu sync.Mutex

	// mapSegments selects the zero-copy open path: segments are mmap'd
	// read-only instead of materialized, CRC validation is deferred to
	// VerifyMapped, and every view handed out aliases a mapping that
	// Close releases. See Options.MapSegments.
	mapSegments bool
	mapped      []*mappedSeg

	// commitCh broadcasts commits to replication ship loops: it is closed
	// (and replaced) by every successful AppendBatch, so a waiter blocked
	// on CommitSignal wakes exactly when the position it cached went stale.
	commitCh chan struct{}

	// traceTab maps recent transitions to the trace context of the commit
	// that produced them, so the replication ship loop can stamp batch
	// frames with the ingest span that caused each transition (tracetab.go).
	traceTab commitTraceTable

	closed bool
}

// Create initializes dir (created if needed) as a new store whose base
// snapshot is the given edge list. The directory must not already hold a
// store.
func Create(dir string, vertices int, base graph.EdgeList) (*Store, error) {
	return CreateReplica(dir, vertices, base, 0, 0, 0)
}

// CreateReplica initializes dir as a store whose base snapshot already
// sits at an absolute position in some other store's history — the
// bootstrap path of a replication follower: the shipped base becomes this
// store's base segment at baseVersion, the WAL commit pointer starts at
// walSeq, and the store adopts the primary's epoch. Create is the
// (0, 0, 0) special case.
func CreateReplica(dir string, vertices int, base graph.EdgeList, baseVersion int, walSeq uint64, epoch uint64) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already holds a store", dir)
	}
	if baseVersion < 0 {
		return nil, fmt.Errorf("store: negative base version %d", baseVersion)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	canon := base.Clone().Canonicalize()
	for _, e := range canon {
		if int(e.Src) >= vertices || int(e.Dst) >= vertices {
			return nil, fmt.Errorf("store: base edge %v out of vertex range %d", e, vertices)
		}
	}
	man := manifest{
		vertices:    vertices,
		baseVersion: baseVersion,
		transitions: baseVersion,
		walSeq:      walSeq,
		epoch:       epoch,
	}
	if err := writeSegment(dir, baseName(man.generation), kindBase, vertices, canon); err != nil {
		return nil, err
	}
	w, err := createWAL(dir, vertices)
	if err != nil {
		return nil, err
	}
	w.nextSeq = walSeq + 1
	// The manifest swap is the commit point: before it the directory is
	// not a store and Create can simply be retried.
	if err := swapManifest(dir, man); err != nil {
		w.close()
		return nil, err
	}
	return &Store{
		dir:       dir,
		man:       man,
		wal:       w,
		origin:    baseVersion,
		baseCache: canon,
		ovlCache:  make(map[int][2]graph.EdgeList),
	}, nil
}

// Options configures Open behavior.
type Options struct {
	// MapSegments opens segments as read-only memory mappings instead of
	// materializing them: a cold open becomes page-in, and the CRC
	// trailer validates lazily (VerifyMapped) instead of on load. Edge
	// views handed out by a mapped store alias the mappings and are
	// valid only until Close. On platforms without mmap support the flag
	// is ignored and segments materialize as before.
	MapSegments bool
}

// Open opens an existing store, running crash recovery first: the WAL's
// torn tail is truncated, records already folded into overlays are
// dropped, interrupted segment writes are garbage-collected, and the raw
// updates of the in-flight ingest window are surfaced via TakePending.
// Open reads only the manifest and the WAL; segments load lazily.
func Open(dir string) (*Store, error) { return OpenWith(dir, Options{}) }

// OpenWith is Open with explicit Options.
func OpenWith(dir string, opts Options) (*Store, error) {
	sp := obs.Env().StartSpan("store.open", obs.String("dir", dir),
		obs.Bool("mapped", opts.MapSegments && mmapSupported))
	defer sp.End()
	man, err := readManifest(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %s is not a store (no %s): %w", dir, manifestName, err)
		}
		return nil, err
	}
	w, pending, err := openWAL(dir, man.vertices, man.walSeq)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:         dir,
		man:         man,
		wal:         w,
		origin:      man.baseVersion,
		pending:     pending,
		ovlCache:    make(map[int][2]graph.EdgeList),
		mapSegments: opts.MapSegments && mmapSupported,
	}
	if err := s.gc(); err != nil {
		w.close()
		return nil, err
	}
	if len(pending) > 0 {
		obs.RecoveredUpdates().Add(int64(len(pending)))
	}
	sp.SetAttr(obs.Int("transitions", man.transitions-man.baseVersion),
		obs.Int("pending", len(pending)))
	return s, nil
}

// gc removes files an interrupted write left behind: anything matching
// the store's naming patterns that the manifest does not reference. Live
// segments were fsynced before the manifest swap that referenced them,
// so everything unreferenced is garbage by construction.
func (s *Store) gc() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	live := map[string]bool{
		manifestName:               true,
		walName:                    true,
		baseName(s.man.generation): true,
	}
	for t := s.man.baseVersion; t < s.man.transitions; t++ {
		live[overlayName(t)] = true
	}
	for _, e := range entries {
		name := e.Name()
		if live[name] {
			continue
		}
		stale := name == manifestTmpName || name == walTmpName ||
			(strings.HasSuffix(name, ".seg") &&
				(strings.HasPrefix(name, "base-") || strings.HasPrefix(name, "ovl-")))
		if !stale {
			continue // not ours; leave it alone
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return syncDir(s.dir)
}

// NumVertices returns the store's vertex-space size.
func (s *Store) NumVertices() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.vertices
}

// BaseVersion returns the absolute snapshot version the base segment
// currently holds (it advances with compaction).
func (s *Store) BaseVersion() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.baseVersion
}

// Origin returns the base version as of Open — the absolute snapshot
// that an in-memory mirror loaded at open time calls version 0.
func (s *Store) Origin() int { return s.origin }

// Transitions returns the absolute transition count: overlays cover
// [BaseVersion, Transitions).
func (s *Store) Transitions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.transitions
}

// WALSeq returns the last raw-update sequence folded into a durable
// overlay (the manifest's commit pointer).
func (s *Store) WALSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.walSeq
}

// Epoch returns the store's replication epoch — the group generation it
// is entitled to write at. 0 until the store joins a replication group.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.epoch
}

// Fenced reports whether the store has observed a higher epoch than its
// own and is therefore refusing commits.
func (s *Store) Fenced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.fenced()
}

// Position returns the store's replication coordinates in one consistent
// read: the base version, the transition count, the WAL commit pointer,
// and the epoch.
func (s *Store) Position() (baseVersion, transitions int, walSeq uint64, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.baseVersion, s.man.transitions, s.man.walSeq, s.man.epoch
}

// ObserveEpoch records a foreign epoch. Observing one higher than the
// store's own fences the store durably (the manifest swap persists it, so
// a restart does not unfence) and returns ErrFenced; equal or lower
// epochs are no-ops. This is how a stale primary learns it has been
// superseded: a promoted follower's fence frame, or a hello from a peer
// that already adopted the new epoch.
func (s *Store) ObserveEpoch(e uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e <= s.man.epoch {
		return nil
	}
	if e > s.man.fencedBy {
		man := s.man
		man.fencedBy = e
		if err := swapManifest(s.dir, man); err != nil {
			return err
		}
		s.man = man
		obs.ReplFencings().Inc()
		obs.Env().Event("store.fenced", obs.Int64("epoch", int64(s.man.epoch)),
			obs.Int64("by", int64(e)))
	}
	return fmt.Errorf("store: epoch %d observed %d: %w", s.man.epoch, e, ErrFenced)
}

// AdoptEpoch raises the store's own epoch to e — the follower path: a
// replica replaying frames stamped with a newer group epoch is not being
// superseded, it is keeping up, so the epoch advances without fencing
// (and clears any fence the new epoch covers). Lower or equal epochs are
// no-ops. Contrast ObserveEpoch, which records a foreign epoch the store
// is NOT entitled to write at.
func (s *Store) AdoptEpoch(e uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e <= s.man.epoch {
		return nil
	}
	man := s.man
	man.epoch = e
	if man.fencedBy <= e {
		man.fencedBy = 0
	}
	if err := swapManifest(s.dir, man); err != nil {
		return err
	}
	s.man = man
	return nil
}

// BumpEpoch makes the store the writer of a fresh epoch — the promotion
// step: the new epoch strictly exceeds both the store's own and every
// epoch it has observed, and the fence (if any) is cleared in the same
// manifest swap. Returns the new epoch.
func (s *Store) BumpEpoch() (uint64, error) {
	if err := faults.Check(faults.ReplPromote); err != nil {
		return 0, fmt.Errorf("store: bump epoch: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	man := s.man
	next := man.epoch
	if man.fencedBy > next {
		next = man.fencedBy
	}
	man.epoch = next + 1
	man.fencedBy = 0
	if err := swapManifest(s.dir, man); err != nil {
		return 0, err
	}
	s.man = man
	obs.ReplPromotions().Inc()
	obs.Env().Event("store.promoted", obs.Int64("epoch", int64(man.epoch)))
	return man.epoch, nil
}

// CommitSignal returns a channel closed at the next successful
// AppendBatch — the replication ship loop's wake-up. Callers must re-read
// the store's Position after the channel fires and re-arm with a fresh
// CommitSignal call: each returned channel signals at most one commit.
func (s *Store) CommitSignal() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.commitCh == nil {
		s.commitCh = make(chan struct{})
	}
	return s.commitCh
}

// TakePending returns and clears the raw updates crash recovery found
// above the commit pointer — the in-flight ingest window, for the
// ingest layer to re-seed exactly once.
func (s *Store) TakePending() []RawUpdate {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pending
	s.pending = nil
	return p
}

// Base returns the base snapshot's canonical edge list, loading the base
// segment on first use. The result is immutable.
func (s *Store) Base() (graph.EdgeList, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.baseLocked()
}

// loadSegmentLocked dispatches one segment load to the configured open
// path: mmap'd zero-copy views (tracked for teardown on Close) or the
// materializing readSegment.
func (s *Store) loadSegmentLocked(name string, wantKind uint32) (vertices int, sections []graph.EdgeList, err error) {
	if s.closed {
		return 0, nil, fmt.Errorf("store: closed")
	}
	if !s.mapSegments {
		return readSegment(s.dir, name, wantKind)
	}
	m, err := openSegmentMapped(s.dir, name, wantKind)
	if err != nil {
		return 0, nil, err
	}
	s.mapped = append(s.mapped, m)
	return m.vertices, m.sections, nil
}

func (s *Store) baseLocked() (graph.EdgeList, error) {
	if s.baseCache != nil {
		return s.baseCache, nil
	}
	vertices, sections, err := s.loadSegmentLocked(baseName(s.man.generation), kindBase)
	if err != nil {
		return nil, err
	}
	if vertices != s.man.vertices || len(sections) != 1 {
		return nil, fmt.Errorf("%w: base segment shape (%d vertices, %d sections)", ErrCorrupt, vertices, len(sections))
	}
	s.baseCache = sections[0]
	return s.baseCache, nil
}

// Overlay returns transition t's Δ+/Δ− batches (absolute numbering),
// loading the overlay segment on first use. The results are immutable.
func (s *Store) Overlay(t int) (adds, dels graph.EdgeList, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overlayLocked(t)
}

func (s *Store) overlayLocked(t int) (adds, dels graph.EdgeList, err error) {
	if t < s.man.baseVersion || t >= s.man.transitions {
		return nil, nil, fmt.Errorf("store: overlay %d out of range [%d,%d)", t, s.man.baseVersion, s.man.transitions)
	}
	if c, ok := s.ovlCache[t]; ok {
		return c[0], c[1], nil
	}
	vertices, sections, err := s.loadSegmentLocked(overlayName(t), kindOverlay)
	if err != nil {
		return nil, nil, err
	}
	if vertices != s.man.vertices || len(sections) != 2 {
		return nil, nil, fmt.Errorf("%w: overlay %d shape (%d vertices, %d sections)", ErrCorrupt, t, vertices, len(sections))
	}
	s.ovlCache[t] = [2]graph.EdgeList{sections[0], sections[1]}
	return sections[0], sections[1], nil
}

// AppendBatch durably appends one transition: the overlay segment is
// written and fsynced, then the manifest swap commits it together with
// the WAL high-water mark upToSeq (0 keeps the current mark — the
// ApplyUpdates path, which bypasses the WAL), then the WAL drops the
// folded records. An empty batch pair advances only the commit pointer —
// an ingest window that cancelled itself out still consumes its WAL
// records.
func (s *Store) AppendBatch(adds, dels graph.EdgeList, upToSeq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.man.fenced() {
		return fmt.Errorf("store: append batch at epoch %d (fenced by %d): %w",
			s.man.epoch, s.man.fencedBy, ErrFenced)
	}
	if !adds.IsCanonical() || !dels.IsCanonical() {
		return fmt.Errorf("store: append batch: %w", graph.ErrNotCanonical)
	}
	man := s.man
	if upToSeq == 0 {
		upToSeq = man.walSeq
	} else if upToSeq < man.walSeq {
		return fmt.Errorf("store: append batch: seq %d behind commit pointer %d", upToSeq, man.walSeq)
	}
	if len(adds) > 0 || len(dels) > 0 {
		if err := writeSegment(s.dir, overlayName(man.transitions), kindOverlay, man.vertices, adds, dels); err != nil {
			return err
		}
		man.transitions++
	}
	man.walSeq = upToSeq
	if err := swapManifest(s.dir, man); err != nil {
		return err
	}
	if man.transitions > s.man.transitions {
		s.ovlCache[s.man.transitions] = [2]graph.EdgeList{adds, dels}
	}
	s.man = man
	if err := s.wal.commit(man.walSeq, man.vertices); err != nil {
		// The manifest swap above was the durable commit point; the batch
		// IS committed, so this must not surface as an AppendBatch error —
		// a caller treating it as a failed append would retry and commit
		// the same transition twice. The rotation is only space
		// reclamation: records at or below the commit pointer are dropped
		// by the next rotation or open regardless. Count it and move on;
		// if the log became unusable, the next Journal call reports it.
		obs.WALTrimFailures().Inc()
		obs.Env().Event("store.wal_trim_failed", obs.String("error", err.Error()))
	}
	if s.commitCh != nil {
		close(s.commitCh)
		s.commitCh = nil
	}
	return nil
}

// Journal appends raw updates to the WAL, assigning their sequence
// numbers in place, and fsyncs before returning.
func (s *Store) Journal(us []RawUpdate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.man.fenced() {
		return fmt.Errorf("store: journal at epoch %d (fenced by %d): %w",
			s.man.epoch, s.man.fencedBy, ErrFenced)
	}
	return s.wal.append(us)
}

// Snapshot materializes the store as an in-memory snapshot store whose
// version 0 is the current base version (Origin for a freshly opened
// store). All segments load here; a canonical-on-disk list is wrapped,
// never re-sorted.
func (s *Store) Snapshot() (*snapshot.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	base, err := s.baseLocked()
	if err != nil {
		return nil, err
	}
	width := s.man.transitions - s.man.baseVersion
	adds := make([]graph.EdgeList, width)
	dels := make([]graph.EdgeList, width)
	for i := 0; i < width; i++ {
		if adds[i], dels[i], err = s.overlayLocked(s.man.baseVersion + i); err != nil {
			return nil, err
		}
	}
	return snapshot.NewStoreFromTransitions(s.man.vertices, base, adds, dels)
}

// FoldBacklog reports what a CompactTo(v) would fold against what it
// would rewrite: the edges held by the overlays below the absolute
// version v, and the edges of the base segment. Both are lengths of lists
// the store has loaded already on every path that commits through it.
func (s *Store) FoldBacklog(v int) (backlog, base int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.baseLocked()
	if err != nil {
		return 0, 0, err
	}
	for t := s.man.baseVersion; t < v && t < s.man.transitions; t++ {
		a, d, err := s.overlayLocked(t)
		if err != nil {
			return 0, 0, err
		}
		backlog += len(a) + len(d)
	}
	return backlog, len(cur), nil
}

// CompactTo folds overlays below the absolute version v into a new base
// generation — the slide compaction: once a maintained window has moved
// past those snapshots no query will ask for them, so their batches
// collapse into the base and the folded segments are deleted. Live
// segments are never mutated; the new base is a new file and the swap is
// atomic. Safe to run concurrently with reads and commits: the fold and
// the write of the new base file happen outside the store lock, against
// immutable inputs, and the lock is re-taken only to swap the manifest.
func (s *Store) CompactTo(v int) error {
	if err := faults.Check(faults.StoreCompact); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	sp := obs.Env().StartSpan("store.compaction", obs.Int("to", v))
	defer sp.End()
	// One fold at a time: the new base file is named by the generation
	// after the one read below, and is written without the store lock.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	man := s.man
	if man.fenced() {
		s.mu.Unlock()
		return fmt.Errorf("store: compact at epoch %d (fenced by %d): %w",
			man.epoch, man.fencedBy, ErrFenced)
	}
	if v <= man.baseVersion {
		s.mu.Unlock()
		return nil // nothing to fold
	}
	if v > man.transitions {
		s.mu.Unlock()
		return fmt.Errorf("store: compact to %d beyond transitions %d", v, man.transitions)
	}
	cur, err := s.baseLocked()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	fold := make([]delta.Net, 0, v-man.baseVersion)
	for t := man.baseVersion; t < v; t++ {
		a, d, oerr := s.overlayLocked(t)
		if oerr != nil {
			s.mu.Unlock()
			return oerr
		}
		fold = append(fold, delta.Net{Adds: a, Dels: d})
	}
	s.mu.Unlock()

	// The overlays compose into one net delta over the small lists; the
	// base is then rewritten in a single pass.
	cur = delta.Compose(len(fold), func(t int) delta.Net { return fold[t] }).Apply(cur)
	newBase := baseName(man.generation + 1)
	if err := writeSegment(s.dir, newBase, kindBase, man.vertices, cur); err != nil {
		removeFolded(s.dir, newBase)
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.compactionStaleLocked(man); err != nil {
		removeFolded(s.dir, newBase) // no manifest ever named it
		return err
	}
	newMan := s.man
	newMan.generation++
	newMan.baseVersion = v
	if err := swapManifest(s.dir, newMan); err != nil {
		// The swap may have failed after its rename: the new base stays,
		// and the next Open keeps whichever base the manifest names.
		return err
	}
	s.man = newMan
	s.baseCache = cur
	for t := man.baseVersion; t < v; t++ {
		delete(s.ovlCache, t)
		removeFolded(s.dir, overlayName(t))
	}
	removeFolded(s.dir, baseName(man.generation))
	obs.Compactions().Inc()
	sp.SetAttr(obs.Int("folded", v-man.baseVersion), obs.Int("base_edges", len(cur)))
	return nil
}

// compactionStaleLocked reports why a fold prepared against the manifest
// was must not be committed any more: the store was closed, fenced or
// compacted by someone else while the lock was released.
func (s *Store) compactionStaleLocked(was manifest) error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.man.fenced() {
		return fmt.Errorf("store: compact at epoch %d (fenced by %d): %w",
			s.man.epoch, s.man.fencedBy, ErrFenced)
	}
	if s.man.generation != was.generation || s.man.baseVersion != was.baseVersion {
		return fmt.Errorf("store: compaction raced another compaction (generation %d -> %d)",
			was.generation, s.man.generation)
	}
	return nil
}

// removeFolded deletes a segment file superseded by a compaction. The
// manifest no longer references it, so a failure is tolerated — the next
// Open garbage-collects orphans — but it is counted: a store that cannot
// reclaim space is an operational problem even when it stays correct.
func removeFolded(dir, name string) {
	if err := os.Remove(segPath(dir, name)); err != nil && !os.IsNotExist(err) {
		obs.CompactionGCFailures().Inc()
	}
}

// Mapped reports whether the store serves segments from memory mappings.
func (s *Store) Mapped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mapSegments
}

// VerifyMapped runs the deferred CRC scrub over every currently mapped
// segment, paging the mappings in, and returns the number of segments
// scrubbed plus the first integrity failure (errors.Is ErrCorrupt).
// Already-verified segments are skipped; a store opened without
// MapSegments scrubs nothing (materializing reads verified eagerly).
func (s *Store) VerifyMapped() (scrubbed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.mapped {
		if m.verified {
			continue
		}
		if verr := m.verify(); verr != nil {
			return scrubbed, verr
		}
		scrubbed++
	}
	return scrubbed, nil
}

// Close releases the WAL file handle and unmaps any mapped segments —
// every edge view handed out by a mapped store is invalid afterward.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, m := range s.mapped {
		if err := m.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.mapped = nil
	s.baseCache = nil
	s.ovlCache = nil
	if err := s.wal.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
