package repl

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"sync"

	"commongraph/internal/faults"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
	"commongraph/internal/store"
)

// ErrStalePeer is the retryable session error a follower returns after
// hanging up on a primary whose epoch is older than its own — the
// follower has already sent the fence frame that makes that primary
// fence itself.
var ErrStalePeer = errors.New("repl: peer is at a stale epoch")

// ErrPromoted is returned by operations on a follower that has been
// promoted and no longer replicates.
var ErrPromoted = errors.New("repl: follower was promoted")

// Lag is a follower's staleness relative to the primary's last reported
// position. Known is false until the first heartbeat of the first
// session lands.
type Lag struct {
	Known bool
	// Seq is the primary's WAL commit pointer minus the local one.
	Seq uint64
	// Windows is the primary's transition count minus the local one.
	Windows int
}

// Options configures a Follower. Dial is required; everything else is
// optional.
type Options struct {
	// Dial establishes a session connection to the current primary. It is
	// called once per catch-up attempt, under the Run context.
	Dial func(ctx context.Context) (net.Conn, error)
	// Backoff paces reconnect attempts. Zero value = defaults; it is
	// reset after any session that made durable progress.
	Backoff Backoff
	// Apply, when set, observes every replayed transition after it is
	// durable in the local store — the hook the public layer uses to
	// mirror replicated history into the in-memory evolving graph.
	Apply func(transition int, adds, dels graph.EdgeList, walSeq uint64) error
	// Bootstrap, when set, observes every snapshot re-bootstrap after the
	// local store has been recreated from it. The previous *store.Store
	// is closed and invalid; Store() already returns the new one.
	Bootstrap func(st *store.Store) error
	// OnLag, when set, observes every staleness update (heartbeats and
	// replays). Called on the session goroutine; keep it cheap.
	OnLag func(l Lag)
	// Trace, when set, overrides the tracer replay/promote spans record
	// on (default: the process's ambient tracer, obs.Active()). Tests
	// inject one per side to stitch a primary and follower running in
	// one process.
	Trace *obs.Tracer
}

// Follower replicates a primary's history into a local durable store.
// Open it, then drive the catch-up loop with Run; Promote converts the
// replica into the group's new writer.
type Follower struct {
	dir string
	opt Options

	wmu sync.Mutex // serializes frame writes on the live conn

	mu         sync.Mutex
	st         *store.Store // nil until the first snapshot bootstrap
	conn       net.Conn     // live session conn, nil between sessions
	primaryT   int
	primarySeq uint64
	seen       bool
	promoted   bool
	closed     bool
	// lastTrace is the trace context of the most recent frame that
	// carried one — the primary-side span a staleness-budgeted read or a
	// promotion links itself to.
	lastTrace obs.SpanContext
	// fenceTrace is the promotion span's context, recorded before the
	// epoch bump: every fence the follower sends from then on carries it,
	// the session's as well as Promote's own.
	fenceTrace obs.SpanContext
}

func (f *Follower) tracer() *obs.Tracer {
	if f.opt.Trace != nil {
		return f.opt.Trace
	}
	return obs.Active()
}

// LastTrace returns the trace context of the most recently replayed
// primary span (zero before any frame carried one). Follower-side read
// spans join it so a stitched export links reads to the ingest that fed
// them.
func (f *Follower) LastTrace() obs.SpanContext {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastTrace
}

func (f *Follower) noteTrace(sc obs.SpanContext) {
	if !sc.Valid() {
		return
	}
	f.mu.Lock()
	f.lastTrace = sc
	f.mu.Unlock()
}

// OpenFollower opens (or prepares to create) the replica store in dir.
// A missing or empty dir is fine: the first session bootstraps it from a
// shipped snapshot.
func OpenFollower(dir string, opt Options) (*Follower, error) {
	if opt.Dial == nil {
		return nil, fmt.Errorf("repl: follower needs a Dial function")
	}
	f := &Follower{dir: dir, opt: opt}
	st, err := store.Open(dir)
	switch {
	case err == nil:
		f.st = st
	case errors.Is(err, fs.ErrNotExist):
		// Not a store yet; the first session ships a snapshot.
	default:
		return nil, err
	}
	return f, nil
}

// Store returns the local replica store (nil before the first
// bootstrap). It remains valid after promotion; ownership passes to the
// caller of Promote.
func (f *Follower) Store() *store.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// Lag returns the staleness relative to the primary's last report.
func (f *Follower) Lag() Lag {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lagLocked()
}

func (f *Follower) lagLocked() Lag {
	if !f.seen || f.st == nil {
		return Lag{}
	}
	_, t, seq, _ := f.st.Position()
	l := Lag{Known: true}
	if f.primaryT > t {
		l.Windows = f.primaryT - t
	}
	if f.primarySeq > seq {
		l.Seq = f.primarySeq - seq
	}
	return l
}

// Run drives the catch-up loop: dial, handshake from the durable
// position, replay until the session breaks, back off (jittered,
// context-aware), redial. It returns nil after Promote, or ctx's error.
// Session errors are retried indefinitely — a follower's job is to
// outlive its primary's restarts.
func (f *Follower) Run(ctx context.Context) error {
	bo := f.opt.Backoff
	for {
		f.mu.Lock()
		if f.promoted {
			f.mu.Unlock()
			return nil
		}
		if f.closed {
			f.mu.Unlock()
			return fmt.Errorf("repl: follower closed")
		}
		f.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}

		conn, err := f.opt.Dial(ctx)
		if err == nil {
			f.setConn(conn)
			var progress bool
			progress, err = f.session(ctx, conn)
			f.setConn(nil)
			conn.Close()
			if progress {
				bo.Reset()
			}
		}
		f.mu.Lock()
		promoted := f.promoted
		f.mu.Unlock()
		if promoted {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err != nil {
			obs.Env().Event("repl.session_retry", obs.String("error", err.Error()))
		}
		obs.ReplReconnects().Inc()
		if err := bo.Sleep(ctx); err != nil {
			return err
		}
	}
}

func (f *Follower) setConn(c net.Conn) {
	f.mu.Lock()
	f.conn = c
	f.mu.Unlock()
}

// write serializes frame writes on the session conn: the session's own
// hello/fence frames and Promote's fence (which races the session by
// design) must not interleave bytes.
func (f *Follower) write(conn net.Conn, fr frame) error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	return writeFrame(conn, fr)
}

// epoch returns the follower's current group epoch (0 before any store).
func (f *Follower) epoch() uint64 {
	f.mu.Lock()
	st := f.st
	f.mu.Unlock()
	if st == nil {
		return 0
	}
	return st.Epoch()
}

// session runs one connected session and reports whether it made durable
// progress (any bootstrap or replay).
func (f *Follower) session(ctx context.Context, conn net.Conn) (progress bool, err error) {
	// Cancellation must unblock the frame read; closing the conn is the
	// only portable way.
	done := make(chan struct{})
	//cgvet:ignore goleak -- exits via the deferred close(done) or ctx cancellation
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()
	defer close(done)

	// A hello sent after promotion fences the old primary as a fence frame
	// does, so it carries the promotion span too. The epoch is read first:
	// Promote records the span before the bump, so a hello at the new
	// epoch always finds it.
	epoch := f.epoch()
	hello := helloMsg{}
	f.mu.Lock()
	st := f.st
	helloSc := f.fenceTrace
	f.mu.Unlock()
	if st != nil {
		bv, t, seq, _ := st.Position()
		hello = helloMsg{hasStore: true, vertices: st.NumVertices(),
			baseVersion: bv, transitions: t, walSeq: seq}
	}
	payload, flags := hello.encode()
	if err := f.write(conn, frame{typ: frameHello, flags: flags, epoch: epoch, trace: helloSc, payload: payload}); err != nil {
		return false, err
	}

	for {
		fr, err := readFrame(conn)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return progress, cerr
			}
			return progress, err
		}
		cur := f.epoch()
		if fr.epoch < cur {
			// A primary still writing at an epoch our group moved past:
			// tell it (the fence persists on its side) and hang up. The
			// primary acts on the first fence it reads, so this one carries
			// the promotion span too.
			f.mu.Lock()
			fenceSc := f.fenceTrace
			f.mu.Unlock()
			if werr := f.write(conn, frame{typ: frameFence, epoch: cur, trace: fenceSc}); werr != nil {
				return progress, werr
			}
			return progress, fmt.Errorf("repl: frame at epoch %d < local %d: %w", fr.epoch, cur, ErrStalePeer)
		}

		switch fr.typ {
		case frameSnapshot:
			msg, derr := decodeSnapshot(fr)
			if derr != nil {
				return progress, derr
			}
			if berr := f.bootstrap(msg, fr.epoch); berr != nil {
				return progress, berr
			}
			progress = true

		case frameBatch:
			if err := faults.Check(faults.ReplReplayBatch); err != nil {
				return progress, fmt.Errorf("repl: replay batch: %w", err)
			}
			msg, derr := decodeBatch(fr)
			if derr != nil {
				return progress, derr
			}
			f.mu.Lock()
			st := f.st
			f.mu.Unlock()
			if st == nil {
				return progress, fmt.Errorf("%w: batch before snapshot bootstrap", ErrProto)
			}
			if aerr := st.AdoptEpoch(fr.epoch); aerr != nil {
				return progress, aerr
			}
			// The replay span is a remote child of the primary's ship
			// span: the cross-process edge of the stitched timeline.
			sp := f.tracer().StartRemote(fr.trace, "repl.replay",
				obs.Int("transition", msg.transition),
				obs.Int("adds", len(msg.adds)), obs.Int("dels", len(msg.dels)))
			rerr := f.replay(st, msg)
			if rerr != nil {
				sp.SetAttr(obs.String("error", rerr.Error()))
				sp.End()
				return progress, rerr
			}
			sp.End()
			f.noteTrace(fr.trace)
			progress = true
			f.observeLag()

		case frameHeartbeat:
			msg, derr := decodeHeartbeat(fr)
			if derr != nil {
				return progress, derr
			}
			f.mu.Lock()
			if f.st != nil {
				// Adopt quiet-period epoch advances too, so a reconnect
				// hello carries the group epoch even with no commits.
				f.mu.Unlock()
				if aerr := f.st.AdoptEpoch(fr.epoch); aerr != nil {
					return progress, aerr
				}
				f.mu.Lock()
			}
			f.primaryT, f.primarySeq, f.seen = msg.transitions, msg.walSeq, true
			f.mu.Unlock()
			f.noteTrace(fr.trace)
			f.observeLag()

		case frameFence:
			// Someone with a newer epoch than ours refuses us. Adopt and
			// re-handshake; if the fence carries our own epoch the group
			// is confused and retrying is still the only safe move.
			f.mu.Lock()
			st := f.st
			f.mu.Unlock()
			if st != nil && fr.epoch > cur {
				if aerr := st.AdoptEpoch(fr.epoch); aerr != nil {
					return progress, aerr
				}
			}
			return progress, fmt.Errorf("repl: fenced by peer at epoch %d (local %d)", fr.epoch, cur)

		default:
			return progress, fmt.Errorf("%w: unexpected %s frame from primary", ErrProto, fr.typ)
		}
	}
}

// bootstrap recreates the local store from a shipped base snapshot. The
// old store (if any) is closed and its directory replaced; the WAL
// pointer starts at 0 and the trailing batch frames advance it.
func (f *Follower) bootstrap(msg snapshotMsg, epoch uint64) error {
	f.mu.Lock()
	old := f.st
	f.st = nil
	f.mu.Unlock()
	if old != nil {
		if err := old.Close(); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(f.dir); err != nil {
		return err
	}
	st, err := store.CreateReplica(f.dir, msg.vertices, msg.base, msg.baseVersion, 0, epoch)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.st = st
	f.mu.Unlock()
	obs.Env().Event("repl.bootstrap", obs.Int("base_version", msg.baseVersion),
		obs.Int("edges", len(msg.base)))
	if f.opt.Bootstrap != nil {
		return f.opt.Bootstrap(st)
	}
	return nil
}

// replay applies one batch frame to the local store through the same
// AppendBatch commit path the primary used.
func (f *Follower) replay(st *store.Store, msg batchMsg) error {
	if msg.transition < 0 {
		// Commit-pointer-only advance (a net-zero window upstream).
		if msg.upToSeq <= st.WALSeq() {
			return nil
		}
		return st.AppendBatch(nil, nil, msg.upToSeq)
	}
	cur := st.Transitions()
	if msg.transition < cur {
		return nil // duplicate re-ship after a torn session; replay is idempotent
	}
	if msg.transition > cur {
		return fmt.Errorf("%w: batch for transition %d, local store at %d", ErrProto, msg.transition, cur)
	}
	if err := st.AppendBatch(msg.adds, msg.dels, msg.upToSeq); err != nil {
		return err
	}
	obs.ReplBatchesReplayed().Inc()
	if f.opt.Apply != nil {
		return f.opt.Apply(msg.transition, msg.adds, msg.dels, st.WALSeq())
	}
	return nil
}

// observeLag refreshes the lag gauges and fires OnLag.
func (f *Follower) observeLag() {
	f.mu.Lock()
	l := f.lagLocked()
	cb := f.opt.OnLag
	f.mu.Unlock()
	if l.Known {
		obs.ReplLagSeq().Set(int64(l.Seq))
		obs.ReplLagWindows().Set(int64(l.Windows))
	}
	if cb != nil {
		cb(l)
	}
}

// Promote converts the replica into the group's new writer: the local
// store claims a strictly higher epoch (durably, before anything else),
// a fence frame is pushed up the live session if one exists (best
// effort — a primary that misses it still fences on the next hello it
// hears at the new epoch), and the catch-up loop winds down. Ownership
// of the returned store passes to the caller; Close will not close it.
func (f *Follower) Promote() (*store.Store, uint64, error) {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return nil, 0, ErrPromoted
	}
	st := f.st
	if st == nil {
		f.mu.Unlock()
		return nil, 0, fmt.Errorf("repl: cannot promote before the first bootstrap")
	}
	f.promoted = true
	conn := f.conn
	lastTrace := f.lastTrace
	f.mu.Unlock()

	// The promotion joins the trace of the last replayed primary span, so
	// a mid-trace failover keeps one TraceID lineage: primary ingest →
	// ship → replay → promote → (via the fence frame) the fenced
	// ex-primary's final span.
	sp := f.tracer().StartRemote(lastTrace, "repl.promote")
	fenceSc := sp.Context()
	if !fenceSc.Valid() {
		fenceSc = lastTrace
	}
	// The fence context is recorded before the bump: once the new epoch
	// is durable, the session may fence a frame at the old one before the
	// fence below is written.
	f.mu.Lock()
	f.fenceTrace = fenceSc
	f.mu.Unlock()
	epoch, err := st.BumpEpoch()
	if err != nil {
		f.mu.Lock()
		f.promoted = false
		f.fenceTrace = obs.SpanContext{}
		f.mu.Unlock()
		sp.SetAttr(obs.String("error", err.Error()))
		sp.End()
		return nil, 0, err
	}
	sp.SetAttr(obs.Int64("epoch", int64(epoch)))
	if conn != nil {
		// Best-effort immediate fence; errors are fine — the epoch is
		// already durable and will fence the primary on any later contact.
		_ = f.write(conn, frame{typ: frameFence, epoch: epoch, trace: fenceSc})
		conn.Close()
	}
	sp.End()
	obs.Env().Event("repl.promoted", obs.Int64("epoch", int64(epoch)))
	return st, epoch, nil
}

// Close stops the follower and closes the local store (unless Promote
// already transferred ownership). Cancel Run's context first; Close also
// severs a live session so a blocked read unblocks.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	conn := f.conn
	st := f.st
	promoted := f.promoted
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if st != nil && !promoted {
		return st.Close()
	}
	return nil
}
