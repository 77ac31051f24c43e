package commongraph

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"commongraph/internal/graph"
	"commongraph/internal/obs"
	"commongraph/internal/repl"
	"commongraph/internal/store"
)

// ErrStale is returned by Follower.Run when the replica is beyond its
// staleness budget (or not yet bootstrapped) and FollowerConfig.ServeStale
// is off. errors.Is(err, ErrStale) holds on every wrapped refusal.
var ErrStale = errors.New("commongraph: follower beyond its staleness budget")

// ErrPromoted is returned by Follower operations after Promote has
// converted the replica into a primary.
var ErrPromoted = errors.New("commongraph: follower was promoted")

// ErrFenced reports a write refused because the store's replication
// epoch was superseded: a follower was promoted, and this (old) primary
// must never commit again. errors.Is(err, ErrFenced) holds on every
// write path of a fenced GraphStore — ApplyUpdates, the Ingestor, and
// compaction.
var ErrFenced = store.ErrFenced

// ReplicationOptions tunes a primary's replication server.
type ReplicationOptions struct {
	// Heartbeat is the position-broadcast period on quiet stores
	// (followers derive lag from it). 0 means 100ms.
	Heartbeat time.Duration
	// Trace overrides the tracer ship spans record on (default: the
	// process's ambient tracer). Tests inject one per process side when
	// stitching a primary and follower running in one test.
	Trace *Tracer
}

// ReplicationServer streams a GraphStore's committed history — WAL
// batches and sealed base/overlay segments — to follower stores. See
// DESIGN.md "Replication" for the framing protocol and the epoch-fencing
// rules that exclude split-brain.
type ReplicationServer struct {
	p *repl.Primary
}

// ServeReplication starts replicating this store to any follower that
// connects on ln. It returns immediately; sessions run until Close. The
// GraphStore keeps working as usual — every committed transition ships
// to connected followers as it lands. A nil listener is allowed: the
// server then only replicates connections handed to Attach (in-process
// pipes).
func (gs *GraphStore) ServeReplication(ln net.Listener, opt ReplicationOptions) *ReplicationServer {
	p := repl.NewPrimary(gs.s, opt.Heartbeat)
	if opt.Trace != nil {
		p.SetTracer(opt.Trace)
	}
	if ln != nil {
		//cgvet:ignore goleak -- accept loop exits when ReplicationServer.Close closes the listener
		go p.Serve(ln) //nolint:errcheck // Serve returns nil after Close
	}
	return &ReplicationServer{p: p}
}

// Attach serves one already-established connection (an in-process
// net.Pipe end, a conn from a custom acceptor). The server owns it.
func (rs *ReplicationServer) Attach(conn net.Conn) { rs.p.Attach(conn) }

// Close stops replication: listeners close, sessions end, and Close
// waits for them. The underlying GraphStore stays open.
func (rs *ReplicationServer) Close() error { return rs.p.Close() }

// Epoch returns the store's replication epoch (0 until it joins a
// replication group).
func (gs *GraphStore) Epoch() uint64 { return gs.s.Epoch() }

// FencedByReplication reports whether this store has been superseded by
// a promoted follower: every further write returns an error wrapping
// store fencing (the double-commit guard).
func (gs *GraphStore) FencedByReplication() bool { return gs.s.Fenced() }

// ReplicationLag is a follower's staleness relative to the primary's
// last reported position. Known is false until the first heartbeat.
type ReplicationLag struct {
	Known bool
	// Seq is the primary's WAL commit pointer minus the local one.
	Seq uint64
	// Windows is the primary's committed-transition count minus the
	// local one.
	Windows int
}

// FollowerConfig configures Follow.
type FollowerConfig struct {
	// Dir is the replica store directory. Missing or empty is fine: the
	// first session bootstraps it from a shipped snapshot.
	Dir string
	// Addr is the primary's TCP address. Leave empty and set Dial for a
	// custom transport (in-process pipes in tests).
	Addr string
	// Dial overrides Addr with a custom transport.
	Dial func(ctx context.Context) (net.Conn, error)
	// WindowWidth bounds the follower's maintained evaluation window:
	// once the mirror holds this many snapshots, each replayed
	// transition slides the window instead of growing it. 0 means grow
	// without bound.
	WindowWidth int
	// MaxLagSeq and MaxLagWindows set the staleness budget (in WAL
	// sequence numbers and committed windows). When either is exceeded —
	// or the primary has never been heard from while a budget is set —
	// the follower is not Ready and Run refuses reads with ErrStale
	// unless ServeStale is on. 0 disables that bound; both 0 means reads
	// are always served and never marked.
	MaxLagSeq     uint64
	MaxLagWindows int
	// ServeStale serves reads past the budget anyway, marking the result
	// (Result.Stale) instead of failing fast.
	ServeStale bool
	// RetryBackoff is the initial reconnect backoff of the catch-up loop
	// (it grows exponentially with jitter, and resets after a session
	// that makes progress). 0 means 20ms.
	RetryBackoff time.Duration
	// Trace overrides the tracer replay/read spans record on (default:
	// the process's ambient tracer). Tests inject one per process side
	// when stitching a primary and follower running in one test.
	Trace *Tracer
}

// Follower is a live read replica: a catch-up loop replays the primary's
// committed history into a local durable store and mirrors it into an
// in-memory evolving graph with a maintained evaluation window, so Run
// serves queries at bounded staleness while ingest continues on the
// primary. Promote converts the replica into the group's new primary,
// fencing the old one.
type Follower struct {
	cfg    FollowerConfig
	inner  *repl.Follower
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.RWMutex
	g        *EvolvingGraph
	w        *Watcher
	promoted *GraphStore // non-nil once Promote succeeded

	// commitNotifier is the follower's own monotonic window generation:
	// it advances on every replayed maintenance commit AND on every
	// (re-)bootstrap, so a serving layer keyed on it never confuses
	// windows across a mirror swap (each swapped-in Watcher restarts its
	// own counter at zero).
	commitNotifier
}

// Follow opens (or prepares) the replica at cfg.Dir and starts the
// catch-up loop against the primary. It returns immediately; the
// follower connects, bootstraps, and replays in the background,
// reconnecting with jittered exponential backoff for as long as it
// lives. Use Ready/Lag to observe progress and Close to stop.
func Follow(cfg FollowerConfig) (*Follower, error) {
	if cfg.Dial == nil {
		if cfg.Addr == "" {
			return nil, fmt.Errorf("commongraph: follower needs Addr or Dial")
		}
		addr := cfg.Addr
		var d net.Dialer
		cfg.Dial = func(ctx context.Context) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	f := &Follower{cfg: cfg, done: make(chan struct{})}
	inner, err := repl.OpenFollower(cfg.Dir, repl.Options{
		Dial:      cfg.Dial,
		Backoff:   repl.Backoff{Base: cfg.RetryBackoff},
		Apply:     f.apply,
		Bootstrap: f.bootstrap,
		Trace:     cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	f.inner = inner
	if st := inner.Store(); st != nil {
		// Reopened replica: mirror the durable history before the first
		// session so reads work while the primary is unreachable.
		if err := f.mirror(st); err != nil {
			inner.Close()
			return nil, err
		}
	}
	// The follower is its own lifecycle root: the catch-up loop runs until
	// Close, not until some caller's request context ends.
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	//cgvet:ignore goleak -- catch-up loop exits when Close cancels ctx (or after promotion); Close waits on done
	go func() {
		defer close(f.done)
		f.inner.Run(ctx) //nolint:errcheck // terminal state is observable via Ready/Lag; retries happen inside
	}()
	return f, nil
}

// bootstrap (re)builds the in-memory mirror after the replica store was
// created or recreated from a shipped snapshot.
func (f *Follower) bootstrap(st *store.Store) error { return f.mirror(st) }

// mirror materializes st as the follower's evolving graph and opens a
// maintained window over its most recent snapshots.
func (f *Follower) mirror(st *store.Store) error {
	snap, err := st.Snapshot()
	if err != nil {
		return err
	}
	g := FromStore(snap)
	n := g.NumSnapshots()
	from := 0
	if f.cfg.WindowWidth > 0 && n > f.cfg.WindowWidth {
		from = n - f.cfg.WindowWidth
	}
	w, err := g.Watch(from, n-1)
	if err != nil {
		return err
	}
	// Chain the new watcher's commits into the follower's own generation;
	// the bootstrap itself is also a commit (the whole window changed).
	w.OnCommit(func(uint64) { f.notifyCommit() })
	f.mu.Lock()
	old := f.w
	f.g, f.w = g, w
	f.mu.Unlock()
	f.notifyCommit()
	if old != nil {
		//cgvet:ignore errflow -- the superseded window has no background persistence attached, so its Close reports nothing actionable
		old.Close() //nolint:errcheck
	}
	return nil
}

// apply mirrors one replayed transition into the in-memory graph and
// maintains the evaluation window. It runs on the replication session
// goroutine, after the transition is durable in the local store.
func (f *Follower) apply(_ int, adds, dels graph.EdgeList, _ uint64) error {
	f.mu.RLock()
	g, w := f.g, f.w
	f.mu.RUnlock()
	if g == nil || w == nil {
		return fmt.Errorf("commongraph: replayed batch before bootstrap")
	}
	if _, err := g.ApplyUpdates(adds, dels); err != nil {
		return err
	}
	if f.cfg.WindowWidth > 0 {
		if from, to := w.Window(); to-from+1 >= f.cfg.WindowWidth {
			return w.Slide()
		}
	}
	return w.Append()
}

// Graph returns the follower's in-memory mirror (nil before the first
// bootstrap). Reads race replay maintenance; prefer Run, which evaluates
// over the maintained window's immutable representation.
func (f *Follower) Graph() *EvolvingGraph {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.g
}

// Watcher returns the maintained evaluation window over the mirror (nil
// before the first bootstrap).
func (f *Follower) Watcher() *Watcher {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.w
}

// Lag returns the replica's staleness relative to the primary's last
// report.
func (f *Follower) Lag() ReplicationLag {
	l := f.inner.Lag()
	return ReplicationLag{Known: l.Known, Seq: l.Seq, Windows: l.Windows}
}

// Acknowledged returns the WAL commit pointer of the local replica — the
// resume position a promoted follower hands to producers (it may trail
// the failed primary's: updates above it were never replicated and must
// be re-sent).
func (f *Follower) Acknowledged() uint64 {
	if st := f.inner.Store(); st != nil {
		return st.WALSeq()
	}
	return 0
}

// overBudget reports whether reads exceed the configured staleness
// budget. With no budget configured there is nothing to exceed; with
// one, an unknown lag (primary never heard from) counts as over — the
// replica cannot prove freshness.
func (f *Follower) overBudget() bool {
	if f.cfg.MaxLagSeq == 0 && f.cfg.MaxLagWindows == 0 {
		return false
	}
	l := f.inner.Lag()
	if !l.Known {
		return true
	}
	if f.cfg.MaxLagSeq > 0 && l.Seq > f.cfg.MaxLagSeq {
		return true
	}
	if f.cfg.MaxLagWindows > 0 && l.Windows > f.cfg.MaxLagWindows {
		return true
	}
	return false
}

// Ready reports whether the follower can serve fresh reads: it has
// bootstrapped and is within its staleness budget. The detail string
// explains a false — it is what /readyz returns with a 503.
func (f *Follower) Ready() (bool, string) {
	f.mu.RLock()
	promoted := f.promoted != nil
	bootstrapped := f.w != nil
	f.mu.RUnlock()
	if promoted {
		return false, "promoted: now a primary, not a follower"
	}
	if !bootstrapped {
		return false, "awaiting snapshot bootstrap"
	}
	if f.overBudget() {
		l := f.Lag()
		if !l.Known {
			return false, "primary never heard from; staleness unknown"
		}
		return false, fmt.Sprintf("staleness budget exceeded: lag %d seqs, %d windows", l.Seq, l.Windows)
	}
	return true, "ok"
}

// Run evaluates a query over the follower's maintained window. Within
// the staleness budget it behaves exactly like Watcher.Run on the
// primary; past it, reads fail fast with ErrStale — or, with
// ServeStale, are served with Result.Stale set.
func (f *Follower) Run(ctx context.Context, req Request) (*Result, error) {
	f.mu.RLock()
	w, promoted := f.w, f.promoted != nil
	f.mu.RUnlock()
	if promoted {
		return nil, ErrPromoted
	}
	if w == nil {
		obs.ReplStaleReads("refused").Inc()
		err := fmt.Errorf("commongraph: follower awaiting bootstrap: %w", ErrStale)
		obs.Incident("stale", err)
		return nil, err
	}
	if req.Options.Trace == nil {
		req.Options.Trace = f.cfg.Trace
	}
	// Adopt the trace of the last replayed batch: the read span becomes a
	// remote child of the primary's ingest trace, so a stitched export
	// shows commit → ship → replay → read as one lineage. An explicit
	// trace context already on ctx wins.
	if !obs.FromContext(ctx).Valid() {
		if sc := f.inner.LastTrace(); sc.Valid() {
			ctx = obs.ContextWithSpan(ctx, sc)
		}
	}
	if !f.overBudget() {
		return w.Run(ctx, req)
	}
	if !f.cfg.ServeStale {
		obs.ReplStaleReads("refused").Inc()
		l := f.Lag()
		err := fmt.Errorf("commongraph: lag %d seqs / %d windows (known=%v): %w",
			l.Seq, l.Windows, l.Known, ErrStale)
		obs.Incident("stale", err)
		return nil, err
	}
	res, err := w.Run(ctx, req)
	if err != nil {
		return nil, err
	}
	res.Stale = true
	obs.ReplStaleReads("served").Inc()
	return res, nil
}

// Promote converts the replica into the group's new primary and returns
// it as a writable GraphStore bound to the mirrored graph. The local
// store durably claims a strictly higher epoch first; a fence is pushed
// up the live session (best effort — the old primary also fences on its
// next contact with the new epoch), and the catch-up loop winds down.
// The returned GraphStore can ingest, serve replication, and persist
// exactly like one from OpenStore; Acknowledged tells resuming producers
// where to restart.
func (f *Follower) Promote() (*GraphStore, error) {
	f.mu.RLock()
	already := f.promoted
	f.mu.RUnlock()
	if already != nil {
		return nil, ErrPromoted
	}
	st, epoch, err := f.inner.Promote()
	if err != nil {
		if errors.Is(err, repl.ErrPromoted) {
			return nil, ErrPromoted
		}
		return nil, err
	}
	f.mu.Lock()
	g := f.g
	gs := &GraphStore{g: g, s: st}
	f.promoted = gs
	f.mu.Unlock()
	obs.Env().Event("follower.promoted", obs.Int64("epoch", int64(epoch)))
	return gs, nil
}

// Promoted returns the GraphStore Promote produced, or nil — the hook
// for operators driving promotion through /promote on ServeOps.
func (f *Follower) Promoted() *GraphStore {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.promoted
}

// ServeOps starts the follower's operational endpoint on addr:
//
//	/metrics   process-wide metric registry (includes the repl lag
//	           gauges and ship/replay counters)
//	/healthz   liveness — 200 while the process serves
//	/readyz    readiness — 200 within the staleness budget, 503 with a
//	           reason otherwise (bootstrap pending, budget exceeded,
//	           promoted)
//	/lag       current lag as JSON {"known":K,"seq":S,"windows":W}
//	/promote   POST: promote this replica; responds with the new epoch
//
// The server runs until MetricsServer.Close.
func (f *Follower) ServeOps(addr string) (*MetricsServer, error) {
	return newOpsServer(addr, func(mux *obs.OpsMux, m *MetricsServer) {
		m.SetReadiness(f.Ready)
		mux.HandleFunc("/lag", func(rw http.ResponseWriter, _ *http.Request) {
			l := f.Lag()
			rw.Header().Set("Content-Type", "application/json")
			json.NewEncoder(rw).Encode(map[string]any{
				"known": l.Known, "seq": l.Seq, "windows": l.Windows,
			})
		})
		mux.HandleFunc("/promote", func(rw http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(rw, "POST required", http.StatusMethodNotAllowed)
				return
			}
			gs, err := f.Promote()
			if err != nil {
				status := http.StatusConflict
				if !errors.Is(err, ErrPromoted) {
					status = http.StatusInternalServerError
				}
				http.Error(rw, err.Error(), status)
				return
			}
			rw.Header().Set("Content-Type", "application/json")
			json.NewEncoder(rw).Encode(map[string]any{
				"epoch":        gs.Epoch(),
				"acknowledged": gs.Acknowledged(),
			})
		})
	})
}

// Close stops the catch-up loop and releases the replica. The local
// store closes unless Promote transferred its ownership; a promoted
// GraphStore (and its mirror graph) outlives the Follower that produced
// it.
func (f *Follower) Close() error {
	f.cancel()
	<-f.done
	f.mu.Lock()
	w := f.w
	f.mu.Unlock()
	var werr error
	if w != nil {
		// The watcher is the follower's serving window, not part of the
		// promoted store; a promoted caller builds a fresh Watch on the
		// returned GraphStore's graph.
		werr = w.Close()
	}
	if err := f.inner.Close(); err != nil {
		return err
	}
	return werr
}
