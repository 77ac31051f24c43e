package repl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"commongraph/internal/obs"
	"commongraph/internal/store"
)

// ErrSuperseded is returned by a primary session that learned — from a
// follower's fence frame or a hello stamped with a higher epoch — that
// it has been superseded. By the time it surfaces, the local store is
// durably fenced (store.ErrFenced on every write path).
var ErrSuperseded = errors.New("repl: superseded by a higher epoch")

// DefaultHeartbeat is the primary's position-broadcast period when the
// store is quiet.
const DefaultHeartbeat = 100 * time.Millisecond

// Primary replicates one durable store to any number of followers. Each
// session resumes from the follower's reported position: already-durable
// history is never re-shipped across reconnects unless compaction folded
// it into the base (then a fresh snapshot bootstrap is shipped).
// Sessions are independent; a slow follower delays only itself.
type Primary struct {
	st        *store.Store
	heartbeat time.Duration

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	trace  *obs.Tracer
	conns  map[net.Conn]struct{}
	lns    map[net.Listener]struct{}
	closed bool
	wg     sync.WaitGroup
}

// SetTracer overrides the tracer ship spans record on (default: the
// process's ambient tracer, obs.Active()). Tests inject one per side to
// stitch a primary and follower running in one process.
func (p *Primary) SetTracer(t *obs.Tracer) {
	p.mu.Lock()
	p.trace = t
	p.mu.Unlock()
}

func (p *Primary) tracer() *obs.Tracer {
	p.mu.Lock()
	t := p.trace
	p.mu.Unlock()
	if t != nil {
		return t
	}
	return obs.Active()
}

// NewPrimary wraps an open store for serving. heartbeat <= 0 uses
// DefaultHeartbeat.
func NewPrimary(st *store.Store, heartbeat time.Duration) *Primary {
	if heartbeat <= 0 {
		heartbeat = DefaultHeartbeat
	}
	// The primary is its own lifecycle root: sessions serve until Close,
	// not until some caller's request context ends.
	ctx, cancel := context.WithCancel(context.Background())
	return &Primary{
		st:        st,
		heartbeat: heartbeat,
		ctx:       ctx,
		cancel:    cancel,
		conns:     make(map[net.Conn]struct{}),
		lns:       make(map[net.Listener]struct{}),
	}
}

// Serve accepts follower sessions on ln until Close (or the listener
// fails). It blocks; run it on its own goroutine when serving is not the
// caller's main loop.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("repl: primary closed")
	}
	p.lns[ln] = struct{}{}
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			delete(p.lns, ln)
			p.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		p.Attach(conn)
	}
}

// Attach serves one already-established connection in the background —
// the in-process (net.Pipe) path tests and benchmarks use. The session
// owns conn and closes it.
func (p *Primary) Attach(conn net.Conn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.conns[conn] = struct{}{}
	p.wg.Add(1)
	p.mu.Unlock()
	// Terminates via Close: the shared ctx cancels the session select and
	// closing conn unblocks any in-flight frame read/write.
	//cgvet:ignore goleak -- session goroutine; Primary.Close cancels ctx, closes conn, and waits on wg
	go func() {
		defer p.wg.Done()
		err := p.serveSession(conn)
		conn.Close()
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
		if err != nil && !errors.Is(err, context.Canceled) {
			obs.Env().Event("repl.session_end", obs.String("error", err.Error()))
		}
	}()
}

// Close tears the primary down: stops listeners, cancels sessions,
// closes their connections, and waits for every session goroutine.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.cancel()
	for ln := range p.lns {
		ln.Close()
	}
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

// fence fences the primary at the higher epoch a follower's hello or
// fence frame carries, durably, and returns the session's end:
// ErrSuperseded, or the store's error if the fence could not be written.
// Both frames carry the promotion span's context, so this final span of
// the ex-primary joins the new authority's trace and a failover reads as
// one lineage whichever frame fenced.
func (p *Primary) fence(f frame) error {
	sp := p.tracer().StartRemote(f.trace, "repl.fenced",
		obs.Int("epoch", int(f.epoch)), obs.String("frame", f.typ.String()))
	err := p.st.ObserveEpoch(f.epoch)
	if err == nil || errors.Is(err, store.ErrFenced) {
		err = fmt.Errorf("repl: %s at epoch %d: %w", f.typ, f.epoch, ErrSuperseded)
	}
	sp.End()
	obs.Incident("fenced", err)
	return err
}

// serveSession runs one follower session: handshake, catch-up, then the
// ship loop — wake on commit (store.CommitSignal), on the heartbeat
// ticker, on a frame from the follower (fence), or on Close.
func (p *Primary) serveSession(conn net.Conn) error {
	hf, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("repl: hello: %w", err)
	}
	if hf.typ != frameHello {
		return fmt.Errorf("%w: expected hello, got %s", ErrProto, hf.typ)
	}
	hello, err := decodeHello(hf)
	if err != nil {
		return err
	}
	if hf.epoch > p.st.Epoch() {
		// The follower already lives in a newer epoch than ours: we are
		// the stale primary. Fence durably before anything else.
		return p.fence(hf)
	}

	// The reader goroutine watches for follower frames — a fence, or the
	// connection dying. It terminates when conn closes (the session's
	// caller always closes conn on return).
	fromFollower := make(chan error, 1)
	//cgvet:ignore goleak -- reader unblocks when the session closes conn
	go func() {
		for {
			f, rerr := readFrame(conn)
			if rerr != nil {
				fromFollower <- rerr
				return
			}
			if f.typ == frameFence {
				fromFollower <- p.fence(f)
				return
			}
			// Anything else mid-session is out of protocol.
			fromFollower <- fmt.Errorf("%w: unexpected %s frame from follower", ErrProto, f.typ)
			return
		}
	}()

	// Resume coordinates. A handshake that cannot be resumed (no store,
	// different vertex space, or a position this store never produced —
	// ahead of us, or behind our compacted base) forces a snapshot
	// bootstrap, expressed as "shipped nothing yet" so the loop's
	// compaction check (sentT < baseVersion) fires on its first pass.
	_, t, seq, _ := p.st.Position()
	sentT, sentSeq := hello.transitions, hello.walSeq
	if !hello.hasStore || hello.vertices != p.st.NumVertices() ||
		hello.transitions > t || hello.walSeq > seq {
		sentT, sentSeq = -1, 0
	}

	tick := time.NewTicker(p.heartbeat)
	defer tick.Stop()
	// lastSc is the trace context of the most recently shipped batch; the
	// heartbeat re-carries it so a follower that connects between commits
	// still links its lag observations to the trace that produced the
	// position it is chasing.
	var lastSc obs.SpanContext
	for {
		// Arm the commit signal before reading the position: a commit
		// landing between the two fires the already-armed signal, so the
		// loop can never sleep through it.
		sig := p.st.CommitSignal()
		bv, t, seq, epoch := p.st.Position()

		if sentT < bv {
			// The follower's next transition was folded into the base
			// (or this is a bootstrap): ship the whole base snapshot.
			base, berr := p.st.Base()
			if berr != nil {
				return berr
			}
			msg := snapshotMsg{vertices: p.st.NumVertices(), baseVersion: bv, base: base}
			sp := p.tracer().StartSpan("repl.ship_snapshot",
				obs.Int("base_version", bv), obs.Int("edges", len(base)))
			err := writeFrame(conn, frame{typ: frameSnapshot, epoch: epoch, trace: sp.Context(), payload: msg.encode()})
			sp.End()
			if err != nil {
				return err
			}
			obs.ReplSnapshotShips().Inc()
			sentT, sentSeq = bv, 0
		}
		for sentT < t {
			adds, dels, oerr := p.st.Overlay(sentT)
			if oerr != nil {
				// Compaction may fold overlays under us mid-walk; restart
				// the pass and let the snapshot path recover.
				break
			}
			msg := batchMsg{transition: sentT, adds: adds, dels: dels}
			if sentT == t-1 {
				// (t, seq) came from one consistent Position read, so seq
				// is exactly the commit pointer after transition t-1 —
				// attaching it to any earlier overlay would advance the
				// follower's pointer past records it has not replayed.
				msg.upToSeq = seq
				sentSeq = seq
			}
			// The ship span joins the trace of the commit that produced
			// this transition, so a stitched export shows ingest → wire →
			// replay as one tree; the frame carries the ship span's own
			// context for the follower to hang its replay span off.
			sp := p.tracer().StartRemote(p.st.CommitTrace(sentT), "repl.ship",
				obs.Int("transition", sentT),
				obs.Int("adds", len(adds)), obs.Int("dels", len(dels)))
			sc := sp.Context()
			if !sc.Valid() {
				sc = p.st.CommitTrace(sentT)
			}
			err := writeFrame(conn, frame{typ: frameBatch, epoch: epoch, trace: sc, payload: msg.encode()})
			sp.End()
			if err != nil {
				return err
			}
			lastSc = sc
			sentT++
		}
		if sentT == t && sentSeq < seq {
			// Net-zero windows: the pointer advanced without a transition.
			msg := batchMsg{transition: -1, upToSeq: seq}
			if err := writeFrame(conn, frame{typ: frameBatch, epoch: epoch, trace: lastSc, payload: msg.encode()}); err != nil {
				return err
			}
			sentSeq = seq
		}
		hb := heartbeatMsg{transitions: t, walSeq: seq}
		if err := writeFrame(conn, frame{typ: frameHeartbeat, epoch: epoch, trace: lastSc, payload: hb.encode()}); err != nil {
			return err
		}

		select {
		case <-sig:
		case <-tick.C:
		case err := <-fromFollower:
			return err
		case <-p.ctx.Done():
			return p.ctx.Err()
		}
	}
}
