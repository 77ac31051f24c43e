package commongraph

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"commongraph/internal/graph"
	"commongraph/internal/ingest"
	"commongraph/internal/obs"
	"commongraph/internal/store"
)

// GraphStore binds an EvolvingGraph to a durable on-disk store: every
// accepted transition is committed to disk (binary segments plus an
// ingest write-ahead log) before the in-memory graph advances, so a
// crash at any point reopens to a consistent prefix of the accepted
// history. See DESIGN.md "Persistence" for the on-disk protocol.
type GraphStore struct {
	g *EvolvingGraph
	s *store.Store

	mu         sync.Mutex
	trace      *obs.Tracer     // explicit tracer override (SetTracer)
	pending    []ingest.Update // in-flight window recovered from the WAL
	pendingSeq uint64          // journal sequence of pending[0]
	ingesting  bool
	// compactMu serializes background compactions so successive window
	// slides fold in order instead of aborting each other.
	compactMu sync.Mutex
}

// SetTracer overrides the tracer commit spans record on (default: the
// process's ambient tracer, obs.Active()). Tests inject one per process
// side when stitching a primary and follower running in one test.
func (gs *GraphStore) SetTracer(t *Tracer) {
	gs.mu.Lock()
	gs.trace = t
	gs.mu.Unlock()
}

// tracerLocked resolves the commit tracer; callers hold gs.mu.
func (gs *GraphStore) tracerLocked() *obs.Tracer {
	if gs.trace != nil {
		return gs.trace
	}
	return obs.Active()
}

// Persist writes the graph's entire current history (base snapshot plus
// every transition) into dir as a new durable store and returns the
// bound handle. The directory must not already hold a store. From then
// on, mutations should go through the returned GraphStore so disk and
// memory stay in lockstep.
func (g *EvolvingGraph) Persist(dir string) (*GraphStore, error) {
	base, err := g.store.GetVersion(0)
	if err != nil {
		return nil, err
	}
	s, err := store.Create(dir, g.NumVertices(), base)
	if err != nil {
		return nil, err
	}
	for t := 0; t < g.NumSnapshots()-1; t++ {
		adds := g.store.Additions(t).Edges()
		dels := g.store.Deletions(t).Edges()
		if err := s.AppendBatch(adds, dels, 0); err != nil {
			s.Close()
			return nil, fmt.Errorf("commongraph: persist transition %d: %w", t, err)
		}
	}
	return &GraphStore{g: g, s: s}, nil
}

// StoreOptions configures how OpenStoreWith opens a durable store.
type StoreOptions struct {
	// MapSegments memory-maps the binary snapshot segments read-only
	// instead of materializing them on the heap — the out-of-core open
	// path: a cold open touches only the pages the load actually reads,
	// and the OS pages the rest in on demand. Segment structure is
	// validated eagerly (a torn or hostile file cannot steer reads out
	// of the mapping); full CRC checksums are deferred to
	// VerifyMapped. Mapped views stay valid until Close; on platforms
	// without mmap support the flag quietly falls back to materializing.
	MapSegments bool
}

// OpenStore opens the durable store at dir, running crash recovery
// (torn segment and WAL tails are discarded, the in-flight ingest
// window is recovered), and materializes its snapshots as the bound
// EvolvingGraph. The graph's snapshot 0 is the store's oldest retained
// snapshot (compaction folds older ones away); Origin reports its
// absolute version.
func OpenStore(dir string) (*GraphStore, error) {
	return OpenStoreWith(dir, StoreOptions{})
}

// OpenStoreWith is OpenStore with explicit store options; see
// StoreOptions for the out-of-core open path.
func OpenStoreWith(dir string, opts StoreOptions) (*GraphStore, error) {
	s, err := store.OpenWith(dir, store.Options{MapSegments: opts.MapSegments})
	if err != nil {
		return nil, err
	}
	snap, err := s.Snapshot()
	if err != nil {
		s.Close()
		return nil, err
	}
	gs := &GraphStore{g: FromStore(snap), s: s}
	if raw := s.TakePending(); len(raw) > 0 {
		gs.pendingSeq = raw[0].Seq
		gs.pending = make([]ingest.Update, len(raw))
		for i, r := range raw {
			op := ingest.Add
			if r.Op == store.RawDelete {
				op = ingest.Delete
			}
			gs.pending[i] = ingest.Update{Op: op, Edge: r.Edge}
		}
	}
	return gs, nil
}

// OpenEvolvingGraph loads the store at dir read-only: the materialized
// graph is returned and the store handle is closed. Updates applied to
// the returned graph are not persisted; use OpenStore to keep writing.
func OpenEvolvingGraph(dir string) (*EvolvingGraph, error) {
	gs, err := OpenStore(dir)
	if err != nil {
		return nil, err
	}
	g := gs.Graph()
	if err := gs.Close(); err != nil {
		return nil, err
	}
	return g, nil
}

// Graph returns the bound in-memory graph. Evaluations read it
// directly; mutations must go through the GraphStore.
func (gs *GraphStore) Graph() *EvolvingGraph { return gs.g }

// Mapped reports whether this store serves segments from read-only
// memory maps (StoreOptions.MapSegments on a platform with mmap).
func (gs *GraphStore) Mapped() bool { return gs.s.Mapped() }

// VerifyMapped scrubs the CRC checksums of every currently mapped
// segment — the integrity pass the mapped open path defers — and
// returns how many segments it verified. Scrubbing faults in every
// page of each unverified segment; run it off the query path. On an
// unmapped store it verifies nothing and returns (0, nil).
func (gs *GraphStore) VerifyMapped() (int, error) { return gs.s.VerifyMapped() }

// Origin returns the absolute version number of the bound graph's
// snapshot 0 — nonzero once compaction has folded old snapshots away.
func (gs *GraphStore) Origin() int { return gs.s.Origin() }

// Acknowledged returns the journal sequence of the last raw update
// durably folded into a snapshot (the WAL commit pointer). Together with
// Recovered it tells a resuming producer where to restart after a crash:
// updates with sequence at or below Acknowledged are inside snapshots,
// the next Recovered updates replay automatically into the first
// Ingestor, and everything later was never acknowledged and must be
// re-sent.
func (gs *GraphStore) Acknowledged() uint64 { return gs.s.WALSeq() }

// Recovered reports how many raw updates of an in-flight ingest window
// crash recovery found; they replay into the first Ingestor created.
func (gs *GraphStore) Recovered() int {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return len(gs.pending)
}

// ApplyUpdates is EvolvingGraph.ApplyUpdates with durability: the
// transition is validated against the latest snapshot, committed to
// disk, and only then applied in memory. The returned version is the
// in-memory index; add Origin for the absolute version.
func (gs *GraphStore) ApplyUpdates(additions, deletions []Edge) (version int, err error) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.commit(graph.EdgeList(additions).Clone().Canonicalize(),
		graph.EdgeList(deletions).Clone().Canonicalize(), 0)
}

// commit is the single write path: dry-run validate against memory,
// commit durably, then mutate memory. Disk leads memory, so an
// acknowledged transition is always on disk, and a crash between the
// two steps reopens with the transition present — never half-applied.
// adds and dels must be canonical. A lastSeq > 0 also advances the WAL
// commit pointer (the journaled ingest path); empty batches then still
// commit, consuming a cancelled window's WAL records.
func (gs *GraphStore) commit(adds, dels graph.EdgeList, lastSeq uint64) (int, error) {
	if len(adds) == 0 && len(dels) == 0 {
		if lastSeq > 0 {
			return 0, gs.s.AppendBatch(nil, nil, lastSeq)
		}
		return 0, fmt.Errorf("commongraph: empty update batch")
	}
	// The commit span is the root of the ingest trace: replication ship
	// spans (and through them follower replay and read spans) join it via
	// the store's commit-trace table.
	sp := gs.tracerLocked().StartSpan("store.commit",
		obs.Int("adds", len(adds)), obs.Int("dels", len(dels)))
	if err := gs.g.store.CheckBatch(adds, dels); err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		sp.End()
		return 0, err
	}
	// Note the trace BEFORE the append: AppendBatch wakes the replication
	// ship loop, which looks the commit trace up by transition index — a
	// note after the wake-up races and ships an unlinked frame. A failed
	// append leaves a harmless entry for a transition that never existed
	// (the bucket is overwritten when that index commits for real).
	transition := gs.s.Transitions()
	gs.s.NoteCommitTrace(transition, sp.Context())
	if err := gs.s.AppendBatch(adds, dels, lastSeq); err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
		sp.End()
		if errors.Is(err, store.ErrFenced) {
			obs.Incident("fenced", err)
		}
		return 0, err
	}
	v, err := gs.g.store.NewVersion(adds, dels)
	if err != nil {
		sp.SetAttr(obs.String("error", err.Error()))
	} else {
		sp.SetAttr(obs.Int("version", v))
	}
	sp.End()
	return v, err
}

// Ingestor returns a durable stream front-end: every raw update is
// appended to the store's WAL (fsynced) before it is acknowledged, and
// each closed window commits as one transition. If crash recovery found
// an in-flight window, it replays into this batcher first — the batcher
// resumes exactly where the crashed process stopped. At most one
// Ingestor may be active per GraphStore.
func (gs *GraphStore) Ingestor(batchSize int) (*Ingestor, error) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.ingesting {
		return nil, fmt.Errorf("commongraph: store already has an active ingestor")
	}
	b, err := ingest.NewJournaledBatcher(func(adds, dels graph.EdgeList, lastSeq uint64) error {
		gs.mu.Lock()
		defer gs.mu.Unlock()
		_, err := gs.commit(adds, dels, lastSeq)
		return err
	}, batchSize, journal{gs.s})
	if err != nil {
		return nil, err
	}
	// Reserve the slot before dropping the lock for Seed, so a concurrent
	// Ingestor call cannot slip in mid-replay and hand out a second
	// active ingestor.
	gs.ingesting = true
	if len(gs.pending) > 0 {
		pending, seq := gs.pending, gs.pendingSeq
		gs.pending, gs.pendingSeq = nil, 0
		// Seed without holding gs.mu: a recovered window that closes
		// immediately commits through the sink above.
		gs.mu.Unlock()
		err := b.Seed(seq, pending...)
		gs.mu.Lock()
		if err != nil {
			// The batcher retains whatever it could not commit; copy that
			// back so a retried Ingestor replays it instead of durably
			// losing updates Recovered() promised were replayable.
			gs.pendingSeq, gs.pending = b.PendingWindow()
			gs.ingesting = false
			return nil, fmt.Errorf("commongraph: replay recovered window: %w", err)
		}
	}
	return &Ingestor{b: b, release: func() {
		gs.mu.Lock()
		gs.ingesting = false
		gs.mu.Unlock()
	}}, nil
}

// journal adapts the durable store's WAL to the ingest.Journal hook.
type journal struct{ s *store.Store }

func (j journal) Append(updates []ingest.Update) (uint64, error) {
	raw := make([]store.RawUpdate, len(updates))
	for i, u := range updates {
		op := store.RawAdd
		if u.Op == ingest.Delete {
			op = store.RawDelete
		}
		raw[i] = store.RawUpdate{Op: op, Edge: u.Edge}
	}
	if err := j.s.Journal(raw); err != nil {
		return 0, err
	}
	return raw[len(raw)-1].Seq, nil
}

// Compact folds all snapshots below the given in-memory version into
// the store's base segment — the slide compaction: once a maintained
// window has moved past those snapshots, no query will ask for them.
// The in-memory graph keeps its full loaded history (its indices do not
// shift); the fold takes effect at the next OpenStore. Live segments
// are never mutated; a crash mid-compaction reopens on the old base.
func (gs *GraphStore) Compact(beforeVersion int) error {
	gs.compactMu.Lock()
	defer gs.compactMu.Unlock()
	return gs.s.CompactTo(gs.s.Origin() + beforeVersion)
}

// foldRatio is the slide compaction's trigger: a watcher's background
// fold runs once the overlays behind its window hold at least
// 1/foldRatio as many edges as the base segment the fold rewrites. Every
// fold then retires a backlog proportional to what it writes, so the
// bytes written per committed edge stay O(1) however small a batch is
// against the graph, while disk and reopen replay stay within
// 1 + 1/foldRatio of the base.
const foldRatio = 8

// foldBacklog reports how many edges the overlays below the in-memory
// version hold, and whether that is enough for a fold to pay for
// rewriting the base.
func (gs *GraphStore) foldBacklog(beforeVersion int) (backlog int, due bool, err error) {
	backlog, base, err := gs.s.FoldBacklog(gs.s.Origin() + beforeVersion)
	return backlog, backlog > 0 && backlog*foldRatio >= base, err
}

// CompactContext is Compact gated on a context: cancellation is checked
// after the compaction slot is acquired, so folds still queued behind a
// running one are skipped once ctx is cancelled (a fold already inside
// the store completes — segment swaps are atomic and never torn by
// cancellation). This is the entry point Watcher.Close relies on to keep
// background slide compactions from outliving the watcher.
func (gs *GraphStore) CompactContext(ctx context.Context, beforeVersion int) error {
	gs.compactMu.Lock()
	defer gs.compactMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	return gs.s.CompactTo(gs.s.Origin() + beforeVersion)
}

// Close releases the store's file handles. The in-memory graph remains
// usable for evaluation.
func (gs *GraphStore) Close() error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.s.Close()
}
