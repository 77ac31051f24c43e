package repl

import (
	"bytes"
	"context"
	"errors"
	"net"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"commongraph/internal/faults"
	"commongraph/internal/graph"
	"commongraph/internal/obs"
	"commongraph/internal/store"
)

func e(s, d graph.VertexID, w graph.Weight) graph.Edge { return graph.Edge{Src: s, Dst: d, W: w} }
func el(es ...graph.Edge) graph.EdgeList               { return graph.EdgeList(es) }

// newSeededStore creates a primary-side store with a base and two
// committed transitions.
func newSeededStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Create(dir, 8, el(e(0, 1, 1), e(1, 2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(el(e(2, 3, 1)), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(el(e(3, 4, 1)), el(e(0, 1, 1)), 0); err != nil {
		t.Fatal(err)
	}
	return s
}

// pipeDialer wires each dial to a fresh in-process session on p.
func pipeDialer(p *Primary) func(context.Context) (net.Conn, error) {
	return func(context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		p.Attach(c2)
		return c1, nil
	}
}

// materialize folds a store's overlays over its base.
func materialize(t *testing.T, st *store.Store) graph.EdgeList {
	t.Helper()
	cur, err := st.Base()
	if err != nil {
		t.Fatal(err)
	}
	bv, tr, _, _ := st.Position()
	for v := bv; v < tr; v++ {
		adds, dels, oerr := st.Overlay(v)
		if oerr != nil {
			t.Fatal(oerr)
		}
		cur = graph.Union(graph.Minus(cur, dels), adds)
	}
	return cur
}

// waitConverged polls until the follower's durable position matches the
// primary store's, then cross-checks the materialized edge lists.
func waitConverged(t *testing.T, ps *store.Store, f *Follower, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		_, pt, pseq, _ := ps.Position()
		if fst := f.Store(); fst != nil {
			_, ft, fseq, _ := fst.Position()
			if ft == pt && fseq == pseq {
				if got, want := materialize(t, fst), materialize(t, ps); !graph.Equal(got, want) {
					t.Fatalf("follower converged to %v, primary holds %v", got, want)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			pb, ptr, pseq, _ := ps.Position()
			var fb, ftr int
			var fseq uint64
			if fst := f.Store(); fst != nil {
				fb, ftr, fseq, _ = fst.Position()
			}
			t.Fatalf("no convergence: primary (%d,%d,%d), follower (%d,%d,%d)",
				pb, ptr, pseq, fb, ftr, fseq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBackoffGrowthCapAndJitterBounds(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0.5, Seed: 7}
	want := []time.Duration{10, 20, 40, 80, 80} // pre-jitter milliseconds
	for i, w := range want {
		d := b.Next()
		lo := time.Duration(float64(w*time.Millisecond) * 0.5)
		hi := time.Duration(float64(w*time.Millisecond) * 1.5)
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, d, lo, hi)
		}
	}
	b.Reset()
	if d := b.Next(); d >= 15*time.Millisecond {
		t.Fatalf("post-reset delay %v did not rewind to the base", d)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	a := Backoff{Seed: 42}
	b := Backoff{Seed: 42}
	c := Backoff{Seed: 43}
	var differ bool
	for i := 0; i < 8; i++ {
		da, db, dc := a.Next(), b.Next(), c.Next()
		if da != db {
			t.Fatalf("attempt %d: same seed diverged (%v != %v)", i, da, db)
		}
		if da != dc {
			differ = true
		}
	}
	if !differ {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestBackoffNoJitterWhenNegative(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Jitter: -1}
	if d := b.Next(); d != 10*time.Millisecond {
		t.Fatalf("jitter-disabled first delay %v, want 10ms", d)
	}
}

func TestSleepContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- SleepContext(ctx, time.Hour) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("SleepContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SleepContext did not honor cancellation")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	hp, hf := helloMsg{hasStore: true, vertices: 8, baseVersion: 1, transitions: 3, walSeq: 9}.encode()
	frames := []frame{
		{typ: frameHello, flags: hf, epoch: 2, payload: hp},
		{typ: frameSnapshot, epoch: 2, payload: snapshotMsg{vertices: 8, baseVersion: 1, base: el(e(0, 1, 1))}.encode()},
		{typ: frameBatch, epoch: 2, payload: batchMsg{transition: 3, upToSeq: 11, adds: el(e(1, 2, 5)), dels: el(e(0, 1, 1))}.encode()},
		{typ: frameBatch, epoch: 2, payload: batchMsg{transition: -1, upToSeq: 12}.encode()},
		{typ: frameHeartbeat, epoch: 2, payload: heartbeatMsg{transitions: 4, walSeq: 12}.encode()},
		{typ: frameFence, epoch: 3},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.typ != want.typ || got.epoch != want.epoch || got.flags != want.flags || !bytes.Equal(got.payload, want.payload) {
			t.Fatalf("frame %d round trip mismatch: %+v != %+v", i, got, want)
		}
	}
	h, err := decodeHello(frames[0])
	if err != nil || h != (helloMsg{hasStore: true, vertices: 8, baseVersion: 1, transitions: 3, walSeq: 9}) {
		t.Fatalf("hello decode %+v, %v", h, err)
	}
	b, err := decodeBatch(frames[2])
	if err != nil || b.transition != 3 || b.upToSeq != 11 || !graph.Equal(b.adds, el(e(1, 2, 5))) || !graph.Equal(b.dels, el(e(0, 1, 1))) {
		t.Fatalf("batch decode %+v, %v", b, err)
	}
	if b.adds[0].W != 5 {
		t.Fatalf("batch decode dropped the weight: %v", b.adds[0])
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{typ: frameHeartbeat, epoch: 1, payload: heartbeatMsg{transitions: 1, walSeq: 1}.encode()}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[frameHeaderLen] ^= 0xFF // flip a payload byte under the CRC
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrProto) {
		t.Fatalf("corrupted frame read = %v, want ErrProto", err)
	}
	raw[frameHeaderLen] ^= 0xFF
	raw[0] ^= 0xFF // now break the magic
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrProto) {
		t.Fatalf("bad-magic read = %v, want ErrProto", err)
	}
}

func TestFrameFaultInjection(t *testing.T) {
	disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{
		{Point: faults.ReplShipFrame, Times: 1},
		{Point: faults.ReplRecvFrame, Times: 1},
	}})
	defer disarm()
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{typ: frameFence}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("armed writeFrame = %v, want ErrInjected", err)
	}
	if _, err := readFrame(&buf); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("armed readFrame = %v, want ErrInjected", err)
	}
}

func TestFollowerBootstrapAndLiveTail(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 10*time.Millisecond)
	defer p.Close()

	f, err := OpenFollower(filepath.Join(dir, "f"), Options{
		Dial:    pipeDialer(p),
		Backoff: Backoff{Base: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()

	waitConverged(t, ps, f, 5*time.Second)
	// Lag becomes Known with the first heartbeat, which can trail the
	// batches that produced convergence by one tick.
	deadline := time.Now().Add(5 * time.Second)
	for {
		lag := f.Lag()
		if lag.Known && lag.Seq == 0 && lag.Windows == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("caught-up lag = %+v", lag)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Live tail: commits after catch-up ship without re-handshaking.
	if err := ps.AppendBatch(el(e(4, 5, 1)), nil, 0); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, ps, f, 5*time.Second)

	cancel()
	if err := <-runDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

func TestFollowerSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 10*time.Millisecond)
	defer p.Close()
	fdir := filepath.Join(dir, "f")
	opts := Options{Dial: pipeDialer(p), Backoff: Backoff{Base: time.Millisecond, Seed: 1}}

	f, err := OpenFollower(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go f.Run(ctx)
	waitConverged(t, ps, f, 5*time.Second)
	cancel()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// More history lands while the follower is down; a reopened follower
	// resumes from its durable position — no snapshot re-ship.
	if err := ps.AppendBatch(el(e(5, 6, 1)), nil, 0); err != nil {
		t.Fatal(err)
	}
	ships := obs.ReplSnapshotShips().Value()
	f2, err := OpenFollower(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go f2.Run(ctx2)
	waitConverged(t, ps, f2, 5*time.Second)
	if got := obs.ReplSnapshotShips().Value(); got != ships {
		t.Fatalf("reopened follower forced %d snapshot ships; resume should ship none", got-ships)
	}
}

func TestReconnectResumesWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 10*time.Millisecond)
	defer p.Close()

	f, err := OpenFollower(filepath.Join(dir, "f"), Options{
		Dial:    pipeDialer(p),
		Backoff: Backoff{Base: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	waitConverged(t, ps, f, 5*time.Second)

	ships := obs.ReplSnapshotShips().Value()
	reconnects := obs.ReplReconnects().Value()
	// Sever the live session under the follower; the catch-up loop must
	// redial and resume incrementally.
	f.mu.Lock()
	conn := f.conn
	f.mu.Unlock()
	if conn == nil {
		t.Fatal("no live session to sever")
	}
	conn.Close()
	if err := ps.AppendBatch(el(e(6, 7, 1)), nil, 0); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, ps, f, 5*time.Second)
	if got := obs.ReplSnapshotShips().Value(); got != ships {
		t.Fatalf("reconnect forced %d snapshot ships; resume should ship none", got-ships)
	}
	if obs.ReplReconnects().Value() == reconnects {
		t.Fatal("reconnect counter did not move")
	}
}

func TestCompactionForcesRebootstrap(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 10*time.Millisecond)
	defer p.Close()
	fdir := filepath.Join(dir, "f")
	opts := Options{Dial: pipeDialer(p), Backoff: Backoff{Base: time.Millisecond, Seed: 1}}

	f, err := OpenFollower(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go f.Run(ctx)
	waitConverged(t, ps, f, 5*time.Second)
	cancel()
	f.Close()

	// While the follower is down, the primary commits more and compacts
	// past the follower's position: the next handshake cannot resume.
	if err := ps.AppendBatch(el(e(4, 5, 1)), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := ps.CompactTo(3); err != nil {
		t.Fatal(err)
	}
	ships := obs.ReplSnapshotShips().Value()
	f2, err := OpenFollower(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go f2.Run(ctx2)
	waitConverged(t, ps, f2, 5*time.Second)
	if got := obs.ReplSnapshotShips().Value(); got != ships+1 {
		t.Fatalf("compacted-past resume shipped %d snapshots, want exactly 1", got-ships)
	}
	fb, _, _, _ := f2.Store().Position()
	if fb != 3 {
		t.Fatalf("re-bootstrapped base version %d, want 3", fb)
	}
}

func TestPointerOnlyAdvanceShips(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 10*time.Millisecond)
	defer p.Close()
	f, err := OpenFollower(filepath.Join(dir, "f"), Options{
		Dial:    pipeDialer(p),
		Backoff: Backoff{Base: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	waitConverged(t, ps, f, 5*time.Second)

	// A net-zero window: records are journaled and consumed without an
	// overlay. The commit pointer must still replicate, or the next
	// resume handshake would re-request consumed records.
	us := []store.RawUpdate{
		{Op: store.RawAdd, Edge: e(6, 7, 1)},
		{Op: store.RawDelete, Edge: e(6, 7, 1)},
	}
	if err := ps.Journal(us); err != nil {
		t.Fatal(err)
	}
	if err := ps.AppendBatch(nil, nil, us[1].Seq); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, ps, f, 5*time.Second)
	_, _, fseq, _ := f.Store().Position()
	if fseq != us[1].Seq {
		t.Fatalf("follower commit pointer %d, want %d", fseq, us[1].Seq)
	}
}

func TestApplyAndOnLagCallbacks(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 10*time.Millisecond)
	defer p.Close()

	type applied struct {
		transition int
		adds, dels int
	}
	appliedCh := make(chan applied, 16)
	lagKnown := make(chan struct{}, 1)
	f, err := OpenFollower(filepath.Join(dir, "f"), Options{
		Dial:    pipeDialer(p),
		Backoff: Backoff{Base: time.Millisecond, Seed: 1},
		Apply: func(tr int, adds, dels graph.EdgeList, _ uint64) error {
			appliedCh <- applied{tr, len(adds), len(dels)}
			return nil
		},
		OnLag: func(l Lag) {
			if l.Known {
				select {
				case lagKnown <- struct{}{}:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	waitConverged(t, ps, f, 5*time.Second)

	want := []applied{{0, 1, 0}, {1, 1, 1}}
	for i, w := range want {
		select {
		case got := <-appliedCh:
			if got != w {
				t.Fatalf("apply %d = %+v, want %+v", i, got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("apply callback %d never fired", i)
		}
	}
	select {
	case <-lagKnown:
	case <-time.After(5 * time.Second):
		t.Fatal("OnLag never reported a known lag")
	}
}

func TestHelloAtHigherEpochFencesStalePrimary(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 10*time.Millisecond)
	defer p.Close()

	// A follower that already lives at epoch 3 — e.g. bootstrapped from a
	// promoted peer — dials the old primary. The hello alone must fence it.
	fs, err := store.CreateReplica(filepath.Join(dir, "f"), 8, nil, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	f, err := OpenFollower(filepath.Join(dir, "f"), Options{
		Dial:    pipeDialer(p),
		Backoff: Backoff{Base: time.Hour}, // one attempt, then park
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for !ps.Fenced() {
		if time.Now().After(deadline) {
			t.Fatal("primary never fenced after higher-epoch hello")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := ps.AppendBatch(el(e(6, 7, 1)), nil, 0); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("fenced primary AppendBatch = %v, want ErrFenced", err)
	}
}

func TestPromoteFencesLivePrimary(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 10*time.Millisecond)
	defer p.Close()

	f, err := OpenFollower(filepath.Join(dir, "f"), Options{
		Dial:    pipeDialer(p),
		Backoff: Backoff{Base: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()
	waitConverged(t, ps, f, 5*time.Second)

	st, epoch, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("promoted epoch %d, want 1", epoch)
	}
	// Run winds down cleanly — a promoted replica never reconnects.
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run after promote = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after promotion")
	}
	// The fence frame pushed up the live session fences the old primary:
	// it can never commit after the promotion.
	deadline := time.Now().Add(5 * time.Second)
	for !ps.Fenced() {
		if time.Now().After(deadline) {
			t.Fatal("old primary never fenced after promotion")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := ps.AppendBatch(el(e(6, 7, 1)), nil, 0); !errors.Is(err, store.ErrFenced) {
		t.Fatalf("stale primary AppendBatch = %v, want ErrFenced", err)
	}
	// The promoted store is the new writer, and survives Follower.Close
	// (ownership transferred).
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(el(e(6, 7, 1)), nil, 0); err != nil {
		t.Fatalf("promoted store append = %v", err)
	}
	if st.Epoch() != 1 {
		t.Fatalf("promoted store epoch %d, want 1", st.Epoch())
	}
	if _, _, err := f.Promote(); !errors.Is(err, ErrPromoted) {
		t.Fatalf("second Promote = %v, want ErrPromoted", err)
	}
	st.Close()
}

func TestPromoteInjectedFaultIsRetryable(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 10*time.Millisecond)
	defer p.Close()
	f, err := OpenFollower(filepath.Join(dir, "f"), Options{
		Dial:    pipeDialer(p),
		Backoff: Backoff{Base: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	waitConverged(t, ps, f, 5*time.Second)

	disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.ReplPromote, Times: 1}}})
	_, _, err = f.Promote()
	disarm()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("injected Promote = %v, want ErrInjected", err)
	}
	if f.Store().Epoch() != 0 {
		t.Fatal("failed promotion moved the epoch")
	}
	// The failure is pre-durability; retrying succeeds.
	st, epoch, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("retried promotion epoch %d, want 1", epoch)
	}
	if st.Fenced() {
		t.Fatal("promoted store is fenced")
	}
}

// TestPromoteFenceCarriesPromotionSpan: once Promote has bumped the
// epoch, a frame at the old epoch makes the session fence its sender
// before (or instead of) Promote's own fence. The primary acts on the
// first fence it reads, so that one must carry the promotion span as
// well, or the fenced ex-primary opens a trace of its own. The session
// here is dialed while Promote runs, so Promote has no live conn to
// fence and the session's fence is the only one sent.
func TestPromoteFenceCarriesPromotionSpan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f")
	fs, err := store.CreateReplica(dir, 8, nil, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	primary := make(chan net.Conn, 1)
	dialing, release := make(chan struct{}), make(chan struct{})
	tr := obs.New(obs.WithFlightRecorder(nil))
	f, err := OpenFollower(dir, Options{
		Dial: func(context.Context) (net.Conn, error) {
			close(dialing)
			<-release
			c1, c2 := net.Pipe()
			primary <- c2
			return c1, nil
		},
		Backoff: Backoff{Base: time.Hour}, // one session, then park
		Trace:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	<-dialing
	st, epoch, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	close(release)
	conn := <-primary
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if hello, err := readFrame(conn); err != nil || hello.typ != frameHello {
		t.Fatalf("first follower frame = %v, %v; want a hello", hello.typ, err)
	}
	stale := frame{typ: frameHeartbeat, epoch: epoch - 1, payload: heartbeatMsg{}.encode()}
	if err := writeFrame(conn, stale); err != nil {
		t.Fatal(err)
	}
	fence, err := readFrame(conn)
	if err != nil || fence.typ != frameFence {
		t.Fatalf("follower answered a stale frame with %v, %v; want a fence", fence.typ, err)
	}
	var promote *obs.Event
	for _, ev := range tr.Events() {
		if ev.Name == "repl.promote" {
			promote = &ev
		}
	}
	if promote == nil {
		t.Fatal("no repl.promote span")
	}
	if fence.epoch != epoch {
		t.Errorf("fence at epoch %d, want %d", fence.epoch, epoch)
	}
	if want := (obs.SpanContext{Trace: promote.Trace, Span: promote.ID}); fence.trace != want {
		t.Errorf("fence carries trace context %+v, want the promotion span %+v", fence.trace, want)
	}
}

// TestPromoteRedialFencesThroughHello: a follower whose dial is in flight
// while Promote runs reaches the old primary with a hello at the new
// epoch. The hello alone fences it, and the fence leaves exactly one
// repl.fenced span on the primary, a remote child of repl.promote, as a
// fence frame does.
func TestPromoteRedialFencesThroughHello(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 10*time.Millisecond)
	defer p.Close()
	primaryTrace := obs.New(obs.WithFlightRecorder(nil))
	p.SetTracer(primaryTrace)

	fs, err := store.CreateReplica(filepath.Join(dir, "f"), 8, nil, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	dialing, release := make(chan struct{}), make(chan struct{})
	followerTrace := obs.New(obs.WithFlightRecorder(nil))
	f, err := OpenFollower(filepath.Join(dir, "f"), Options{
		Dial: func(ctx context.Context) (net.Conn, error) {
			close(dialing)
			<-release
			return pipeDialer(p)(ctx)
		},
		Backoff: Backoff{Base: time.Hour}, // one session, then park
		Trace:   followerTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	<-dialing
	st, epoch, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	close(release)

	fenced := func() []obs.Event {
		var out []obs.Event
		for _, ev := range primaryTrace.Events() {
			if ev.Name == "repl.fenced" {
				out = append(out, ev)
			}
		}
		return out
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(fenced()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the old primary recorded no repl.fenced span after the promoted follower's hello")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !ps.Fenced() {
		t.Fatal("old primary not fenced after the promoted follower's hello")
	}
	var promote *obs.Event
	for _, ev := range followerTrace.Events() {
		if ev.Name == "repl.promote" {
			promote = &ev
		}
	}
	if promote == nil {
		t.Fatal("no repl.promote span")
	}
	spans := fenced()
	if len(spans) != 1 {
		t.Fatalf("%d repl.fenced spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Trace != promote.Trace || sp.Parent != promote.ID {
		t.Errorf("repl.fenced in trace %v under %v, want trace %v under repl.promote %v",
			sp.Trace, sp.Parent, promote.Trace, promote.ID)
	}
	if sp.Attr("frame") != "hello" || sp.Attr("epoch") != strconv.FormatUint(epoch, 10) {
		t.Errorf("repl.fenced attrs frame=%q epoch=%q, want hello, %d", sp.Attr("frame"), sp.Attr("epoch"), epoch)
	}
}

// TestKillPointSelfHeal: a transient injected failure at each wire-order
// kill point breaks the session; the catch-up loop reconnects, resumes
// from the durable position, and converges — no operator involved.
func TestKillPointSelfHeal(t *testing.T) {
	points := []faults.Point{faults.ReplShipFrame, faults.ReplRecvFrame, faults.ReplReplayBatch}
	for _, pt := range points {
		for _, after := range []int{0, 2} {
			t.Run(string(pt)+"/after-"+string(rune('0'+after)), func(t *testing.T) {
				dir := t.TempDir()
				ps := newSeededStore(t, filepath.Join(dir, "p"))
				defer ps.Close()
				p := NewPrimary(ps, 10*time.Millisecond)
				defer p.Close()
				disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{
					{Point: pt, After: after, Times: 1, Transient: true},
				}})
				defer disarm()
				f, err := OpenFollower(filepath.Join(dir, "f"), Options{
					Dial:    pipeDialer(p),
					Backoff: Backoff{Base: time.Millisecond, Seed: uint64(after) + 1},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go f.Run(ctx)
				waitConverged(t, ps, f, 10*time.Second)
				if faults.Hits(pt) == 0 {
					t.Fatalf("kill point %s never hit", pt)
				}
			})
		}
	}
}

// TestFollowerCrashRecovery: the follower dies at each kill point (the
// injected error parks the catch-up loop, the store is closed without
// ceremony), is reopened cold, and must converge from its durable
// position — the replica-side analogue of the store crash matrix.
func TestFollowerCrashRecovery(t *testing.T) {
	points := []faults.Point{faults.ReplShipFrame, faults.ReplRecvFrame, faults.ReplReplayBatch}
	for _, pt := range points {
		t.Run(string(pt), func(t *testing.T) {
			dir := t.TempDir()
			ps := newSeededStore(t, filepath.Join(dir, "p"))
			defer ps.Close()
			p := NewPrimary(ps, 10*time.Millisecond)
			defer p.Close()
			fdir := filepath.Join(dir, "f")

			// After: let the handshake and bootstrap through, then fail
			// mid-stream (replay hits once per batch, ship/recv once per
			// frame, so the thresholds differ). Backoff Base parks the
			// loop after the failure so the "crash" happens at the
			// injected moment, not later.
			after := 3
			if pt == faults.ReplReplayBatch {
				after = 1
			}
			disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{
				{Point: pt, After: after, Times: 1, Transient: true},
			}})
			f, err := OpenFollower(fdir, Options{
				Dial:    pipeDialer(p),
				Backoff: Backoff{Base: time.Hour},
			})
			if err != nil {
				disarm()
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			runDone := make(chan error, 1)
			go func() { runDone <- f.Run(ctx) }()
			deadline := time.Now().Add(10 * time.Second)
			for faults.Hits(pt) < after+1 {
				if time.Now().After(deadline) {
					cancel()
					disarm()
					t.Fatalf("kill point %s never fired", pt)
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
			<-runDone
			f.Close()
			disarm()

			// Cold restart: reopen and converge, with fresh history on top.
			if err := ps.AppendBatch(el(e(5, 6, 1)), nil, 0); err != nil {
				t.Fatal(err)
			}
			f2, err := OpenFollower(fdir, Options{
				Dial:    pipeDialer(p),
				Backoff: Backoff{Base: time.Millisecond, Seed: 9},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f2.Close()
			ctx2, cancel2 := context.WithCancel(context.Background())
			defer cancel2()
			go f2.Run(ctx2)
			waitConverged(t, ps, f2, 10*time.Second)
		})
	}
}

// TestChaosReplicationConverges: probabilistic faults at every repl kill
// point while the primary keeps committing; the follower must still
// converge once the plan disarms.
func TestChaosReplicationConverges(t *testing.T) {
	dir := t.TempDir()
	ps := newSeededStore(t, filepath.Join(dir, "p"))
	defer ps.Close()
	p := NewPrimary(ps, 5*time.Millisecond)
	defer p.Close()
	disarm := faults.Arm(&faults.Plan{Seed: 0xC6, Specs: []faults.Spec{
		{Point: faults.ReplShipFrame, Prob: 0.05, Transient: true},
		{Point: faults.ReplRecvFrame, Prob: 0.05, Transient: true},
		{Point: faults.ReplReplayBatch, Prob: 0.1, Transient: true},
	}})
	f, err := OpenFollower(filepath.Join(dir, "f"), Options{
		Dial:    pipeDialer(p),
		Backoff: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 2},
	})
	if err != nil {
		disarm()
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	for i := 0; i < 10; i++ {
		var w graph.Weight = graph.Weight(i + 1)
		if err := ps.AppendBatch(el(e(graph.VertexID(i%7), graph.VertexID(i%7+1), w)), nil, 0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	disarm()
	waitConverged(t, ps, f, 10*time.Second)
}
