package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commongraph"
	apiv1 "commongraph/api/v1"
	"commongraph/internal/faults"
)

// testGraph builds a deterministic evolving graph through the public API:
// `snapshots` versions of a 200-vertex graph with edge churn between
// consecutive snapshots.
func testGraph(t *testing.T, snapshots int) *commongraph.EvolvingGraph {
	t.Helper()
	const n = 200
	rng := rand.New(rand.NewSource(7))
	// Edges are identified by (src, dst) alone, so track liveness by key.
	live := make(map[commongraph.Edge]bool)   // W fixed per (src,dst) below
	banned := make(map[commongraph.Edge]bool) // deleted this round: no same-batch re-add
	randEdge := func() commongraph.Edge {
		for {
			src, dst := rng.Intn(n), rng.Intn(n)
			e := commongraph.Edge{
				Src: commongraph.VertexID(src),
				Dst: commongraph.VertexID(dst),
				W:   commongraph.Weight(1 + (src+3*dst)%9), // weight derived from endpoints
			}
			if e.Src != e.Dst && !live[e] && !banned[e] {
				return e
			}
		}
	}
	base := make([]commongraph.Edge, 0, 4*n)
	for len(base) < 4*n {
		e := randEdge()
		live[e] = true
		base = append(base, e)
	}
	g := commongraph.New(n, base)
	for s := 1; s < snapshots; s++ {
		var adds, dels []commongraph.Edge
		clear(banned)
		for e := range live {
			if len(dels) == 20 {
				break
			}
			dels = append(dels, e)
			banned[e] = true
		}
		for _, e := range dels {
			delete(live, e)
		}
		for i := 0; i < 30; i++ {
			e := randEdge()
			live[e] = true
			adds = append(adds, e)
		}
		if _, err := g.ApplyUpdates(adds, dels); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func newTestServer(t *testing.T, src Source, cfg Config) (*Server, *apiv1.Client) {
	t.Helper()
	s := New(src, cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	c, err := apiv1.Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func checksums(res *apiv1.RunResult) []apiv1.Checksum {
	out := make([]apiv1.Checksum, len(res.Snapshots))
	for i, s := range res.Snapshots {
		out[i] = s.Checksum
	}
	return out
}

func wantChecksums(t *testing.T, g *commongraph.EvolvingGraph, algoName string, source, from, to int) []apiv1.Checksum {
	t.Helper()
	algo, ok := commongraph.AlgorithmByName(algoName)
	if !ok {
		t.Fatalf("no algorithm %q", algoName)
	}
	res, err := g.Run(context.Background(), commongraph.Request{
		Query:    commongraph.Query{Algorithm: algo, Source: commongraph.VertexID(source)},
		Window:   commongraph.Window{From: from, To: to},
		Strategy: commongraph.DirectHop,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]apiv1.Checksum, len(res.Snapshots))
	for i, s := range res.Snapshots {
		out[i] = apiv1.Checksum(s.Checksum)
	}
	return out
}

func equalChecksums(a, b []apiv1.Checksum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeDifferential: every CommonGraph strategy served over the wire
// matches an uncached in-process evaluation, and a repeated request is a
// cache hit with identical payload.
func TestServeDifferential(t *testing.T) {
	g := testGraph(t, 6)
	_, c := newTestServer(t, GraphSource(g), Config{Workers: 2})
	want := wantChecksums(t, g, "SSSP", 3, 0, 5)
	for _, slug := range []string{"direct-hop", "direct-hop-parallel", "work-sharing", "work-sharing-parallel"} {
		req := &apiv1.RunRequest{Algorithm: "SSSP", Source: 3, Strategy: slug}
		res, err := c.Run(t.Context(), req)
		if err != nil {
			t.Fatalf("%s: %v", slug, err)
		}
		if res.Cached {
			t.Fatalf("%s: first request served from cache", slug)
		}
		if !equalChecksums(checksums(res), want) {
			t.Fatalf("%s: served checksums diverge from uncached evaluation", slug)
		}
		if res.Window != (apiv1.Window{From: 0, To: 5}) {
			t.Fatalf("%s: window = %+v", slug, res.Window)
		}
		again, err := c.Run(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatalf("%s: repeat request missed the cache", slug)
		}
		if !equalChecksums(checksums(again), want) {
			t.Fatalf("%s: cached checksums diverge", slug)
		}
	}
}

// TestServeKeepValues: the values payload survives the int32 -> int64 wire
// conversion exactly.
func TestServeKeepValues(t *testing.T) {
	g := testGraph(t, 3)
	_, c := newTestServer(t, GraphSource(g), Config{Workers: 1})
	res, err := c.Run(t.Context(), &apiv1.RunRequest{Algorithm: "BFS", Source: 0, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := g.Run(context.Background(), commongraph.Request{
		Query:    commongraph.Query{Algorithm: commongraph.BFS, Source: 0},
		Window:   commongraph.Window{From: 0, To: 2},
		Strategy: commongraph.DirectHop,
		Options:  commongraph.Options{KeepValues: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, snap := range res.Snapshots {
		if len(snap.Values) != len(ref.Snapshots[i].Values) {
			t.Fatalf("snapshot %d: %d wire values, want %d", snap.Index, len(snap.Values), len(ref.Snapshots[i].Values))
		}
		for v, val := range snap.Values {
			if val != int64(ref.Snapshots[i].Values[v]) {
				t.Fatalf("snapshot %d vertex %d: wire %d, want %d", snap.Index, v, val, ref.Snapshots[i].Values[v])
			}
		}
	}
}

// countingSource counts the evaluations that reach the source behind it.
type countingSource struct {
	Source
	runs atomic.Int64
}

func (s *countingSource) Run(ctx context.Context, req commongraph.Request) (*commongraph.Result, error) {
	s.runs.Add(1)
	return s.Source.Run(ctx, req)
}

// TestServeOptimalScheduleIsOneCacheIdentity: optimal_schedule is accepted
// and ignored, so two requests that differ only in it are the same
// servable response — one evaluation, one cache entry, the second a hit.
func TestServeOptimalScheduleIsOneCacheIdentity(t *testing.T) {
	src := &countingSource{Source: GraphSource(testGraph(t, 5))}
	s, c := newTestServer(t, src, Config{Workers: 1})
	req := apiv1.RunRequest{Algorithm: "SSSP", Source: 1, Strategy: "work-sharing"}
	first, err := c.Run(t.Context(), &req)
	if err != nil {
		t.Fatal(err)
	}
	req.OptimalSchedule = true
	second, err := c.Run(t.Context(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached || !equalChecksums(checksums(first), checksums(second)) {
		t.Fatalf("cached: first=%v second=%v; want a miss then a hit with equal checksums", first.Cached, second.Cached)
	}
	if runs, entries := src.runs.Load(), s.cache.len(); runs != 1 || entries != 1 {
		t.Fatalf("%d evaluations and %d cache entries, want 1 and 1", runs, entries)
	}
}

// TestServeBadRequests pins the bad_request surface.
func TestServeBadRequests(t *testing.T) {
	g := testGraph(t, 6)
	w, err := g.Watch(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, watch := newTestServer(t, WatchSource(w), Config{Workers: 1})
	_, unshared := newTestServer(t, WatchSource(w), Config{Workers: 1, DisableSharing: true})
	_, graph := newTestServer(t, GraphSource(g), Config{Workers: 1})
	for _, tc := range []struct {
		name string
		c    *apiv1.Client
		req  apiv1.RunRequest
	}{
		{"unknown algorithm", watch, apiv1.RunRequest{Algorithm: "PageRank"}},
		{"unknown strategy", watch, apiv1.RunRequest{Algorithm: "BFS", Strategy: "quantum"}},
		{"window mismatch", watch, apiv1.RunRequest{Algorithm: "BFS", Window: &apiv1.Window{From: 0, To: 5}}},
		{"kickstarter", watch, apiv1.RunRequest{Algorithm: "BFS", Strategy: "kickstarter"}},
		// A source is a vertex of the graph: past |V| it must not reach the
		// engine, and outside [0, 2^32) it must not wrap to a vertex that
		// exists.
		{"watch: source past |V|", watch, apiv1.RunRequest{Algorithm: "BFS", Source: 1 << 20}},
		{"watch, no sharing: source past |V|", unshared, apiv1.RunRequest{Algorithm: "BFS", Source: 1 << 20}},
		{"graph: source past |V|", graph, apiv1.RunRequest{Algorithm: "BFS", Source: 1 << 20}},
		{"watch: negative source", watch, apiv1.RunRequest{Algorithm: "BFS", Source: -1}},
		{"graph: negative source", graph, apiv1.RunRequest{Algorithm: "BFS", Source: -1}},
		{"watch: source past uint32", watch, apiv1.RunRequest{Algorithm: "BFS", Source: 1<<32 + 3}},
		{"graph: source past uint32", graph, apiv1.RunRequest{Algorithm: "BFS", Source: 1<<32 + 3}},
	} {
		_, err := tc.c.Run(t.Context(), &tc.req)
		var werr *apiv1.Error
		if !errors.As(err, &werr) || werr.Code != apiv1.CodeBadRequest {
			t.Errorf("%s: want bad_request, got %v", tc.name, err)
		} else if tc.req.Source != 0 && !strings.Contains(werr.Message, fmt.Sprint(tc.req.Source)) {
			t.Errorf("%s: message does not name the source the client sent: %q", tc.name, werr.Message)
		}
	}
	// The maintained window, requested explicitly, is accepted.
	if _, err := watch.Run(t.Context(), &apiv1.RunRequest{Algorithm: "BFS", Window: &apiv1.Window{From: 1, To: 4}}); err != nil {
		t.Errorf("explicit matching window rejected: %v", err)
	}
}

// TestServeQuota: a tenant exhausting its burst gets quota_exhausted with
// a retry hint while other tenants are unaffected.
func TestServeQuota(t *testing.T) {
	g := testGraph(t, 3)
	hs := httptest.NewServer(New(GraphSource(g), Config{Workers: 1, TenantRate: 0.01, TenantBurst: 2}))
	defer hs.Close()
	a, err := apiv1.Dial(hs.URL, apiv1.WithTenant("team-a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := apiv1.Dial(hs.URL, apiv1.WithTenant("team-b"))
	if err != nil {
		t.Fatal(err)
	}
	req := &apiv1.RunRequest{Algorithm: "BFS", Source: 0}
	for i := 0; i < 2; i++ {
		if _, err := a.Run(t.Context(), req); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	_, err = a.Run(t.Context(), req)
	var werr *apiv1.Error
	if !errors.As(err, &werr) || werr.Code != apiv1.CodeQuotaExhausted {
		t.Fatalf("want quota_exhausted, got %v", err)
	}
	if werr.RetryAfterMillis <= 0 {
		t.Fatalf("quota denial carries no retry hint: %+v", werr)
	}
	if _, err := b.Run(t.Context(), req); err != nil {
		t.Fatalf("team-b throttled by team-a's bucket: %v", err)
	}
}

// blockingSource lets the test hold requests inside Run to fill the
// admission queue deterministically.
type blockingSource struct {
	release chan struct{}
	entered chan struct{}
}

func (s *blockingSource) Run(ctx context.Context, req commongraph.Request) (*commongraph.Result, error) {
	s.entered <- struct{}{}
	select {
	case <-s.release:
		return &commongraph.Result{Strategy: req.Strategy}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
func (s *blockingSource) Window() (int, int, bool) { return 0, 0, false }
func (s *blockingSource) Generation() uint64       { return 0 }
func (s *blockingSource) OnCommit(func(uint64))    {}

// TestServeQueueFull: with one worker and a one-deep queue, the third
// concurrent request is shed with queue_full + Retry-After, and a queued
// client that gives up gets canceled.
func TestServeQueueFull(t *testing.T) {
	src := &blockingSource{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	s, c := newTestServer(t, src, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1, DisableSharing: true})
	req := &apiv1.RunRequest{Algorithm: "BFS", Source: 0}

	done := make(chan error, 2)
	go func() { _, err := c.Run(context.Background(), req); done <- err }()
	<-src.entered // first request is executing

	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	go func() { _, err := c.Run(queuedCtx, req); done <- err }()
	for i := 0; i < 200; i++ { // wait until the second request occupies the queue slot
		if s.queued.Load() == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.queued.Load(); got != 2 {
		t.Fatalf("queue depth = %d, want 2", got)
	}
	if ready, _ := s.Ready(); ready {
		t.Fatal("server claims ready with a saturated queue")
	}

	_, err := c.Run(t.Context(), req)
	var werr *apiv1.Error
	if !errors.As(err, &werr) || werr.Code != apiv1.CodeQueueFull {
		t.Fatalf("want queue_full, got %v", err)
	}
	if werr.RetryAfterMillis <= 0 {
		t.Fatalf("queue_full denial carries no retry hint: %+v", werr)
	}

	cancelQueued() // the queued request gives up while waiting for a slot
	if err := <-done; err == nil {
		t.Fatal("canceled queued request reported success")
	}
	close(src.release)
	if err := <-done; err != nil {
		t.Fatalf("first request: %v", err)
	}
	if ready, _ := s.Ready(); !ready {
		t.Fatal("server not ready after the queue drained")
	}
}

// TestServeInvalidationRace: a window commit landing exactly between an
// evaluation and its cache insert must never let the stale result be
// served at the new generation. The faults observer performs the commit at
// the serve.cache-insert kill point while the insert proceeds — the
// insert's key carries the pre-commit generation, so the next request must
// miss and recompute against the advanced window.
func TestServeInvalidationRace(t *testing.T) {
	g := testGraph(t, 8)
	w, err := g.Watch(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, c := newTestServer(t, WatchSource(w), Config{Workers: 1})

	var committed atomic.Bool
	disarm := faults.Arm(&faults.Plan{Observer: func(p faults.Point, hit int) {
		if p == faults.ServeCacheInsert && committed.CompareAndSwap(false, true) {
			if err := w.Slide(); err != nil {
				t.Errorf("slide at kill point: %v", err)
			}
		}
	}})
	defer disarm()

	req := &apiv1.RunRequest{Algorithm: "SSSP", Source: 3}
	first, err := c.Run(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !committed.Load() {
		t.Fatal("kill point never hit: the race under test did not happen")
	}
	if first.Cached {
		t.Fatal("first request served from cache")
	}
	if s.cache.len() != 1 {
		t.Fatalf("stale insert did not land (cache len %d) - race not exercised", s.cache.len())
	}

	second, err := c.Run(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("request after commit served the stale cached generation")
	}
	if second.Generation <= first.Generation {
		t.Fatalf("generation did not advance: %d -> %d", first.Generation, second.Generation)
	}
	if second.Window != (apiv1.Window{From: 1, To: 4}) {
		t.Fatalf("post-commit window = %+v, want [1,4]", second.Window)
	}
	if equalChecksums(checksums(first), checksums(second)) {
		t.Fatal("advanced window produced identical checksums; commit had no effect")
	}
	if want := wantChecksums(t, g, "SSSP", 3, 1, 4); !equalChecksums(checksums(second), want) {
		t.Fatal("post-commit result diverges from uncached evaluation of the new window")
	}
	// And the recomputed result is now cached at the new generation.
	third, err := c.Run(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || !equalChecksums(checksums(third), checksums(second)) {
		t.Fatal("fresh generation not cached correctly")
	}
}

// TestServeSharedWork: N service requests with overlapping windows do one
// common-graph solve between them. Windows are pre-announced so the
// sharing layer sees the whole batch regardless of request arrival order —
// the service does the same announcement per request at admission.
func TestServeSharedWork(t *testing.T) {
	g := testGraph(t, 10)
	s, c := newTestServer(t, GraphSource(g), Config{Workers: 8, CacheEntries: -1})

	windows := make([]apiv1.Window, 8)
	for i := range windows {
		windows[i] = apiv1.Window{From: i / 4, To: 5 + i/2} // all overlap pairwise
		release := s.PlanCache().Announce(commongraph.Window{From: windows[i].From, To: windows[i].To})
		defer release()
	}
	var wg sync.WaitGroup
	errs := make([]error, len(windows))
	results := make([]*apiv1.RunResult, len(windows))
	for i, win := range windows {
		wg.Add(1)
		go func(i int, win apiv1.Window) {
			defer wg.Done()
			results[i], errs[i] = c.Run(context.Background(), &apiv1.RunRequest{
				Algorithm: "SSSP", Source: 9, Window: &win, Strategy: "direct-hop",
			})
		}(i, win)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want := wantChecksums(t, g, "SSSP", 9, windows[i].From, windows[i].To)
		if !equalChecksums(checksums(results[i]), want) {
			t.Fatalf("request %d: shared evaluation diverges from uncached", i)
		}
	}
	st := s.PlanCache().Stats()
	if st.Solves != 1 {
		t.Fatalf("%d from-scratch common-graph solves for %d overlapping requests, want exactly 1 (stats %+v)",
			st.Solves, len(windows), st)
	}
	if st.Derives+st.Shared < uint64(len(windows)-1) {
		t.Fatalf("sharing layer reused too little: %+v", st)
	}
}

// TestServeSoak: mixed tenants, overlapping windows, and live commits
// under full concurrency. Every response must be a success, a quota/queue
// shed, or a clean cancelation — never an internal error — and successes
// must carry a coherent window for their generation.
func TestServeSoak(t *testing.T) {
	g := testGraph(t, 12)
	w, err := g.Watch(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	hs := httptest.NewServer(New(WatchSource(w), Config{Workers: 4, QueueDepth: 8, TenantRate: 500, TenantBurst: 100}))
	defer hs.Close()

	var (
		wg    sync.WaitGroup
		ok    atomic.Int64
		hits  atomic.Int64
		sheds atomic.Int64
	)
	for tn := 0; tn < 3; tn++ {
		c, err := apiv1.Dial(hs.URL, apiv1.WithTenant(fmt.Sprintf("tenant-%d", tn)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(c *apiv1.Client, seed int) {
				defer wg.Done()
				algos := []string{"BFS", "SSSP", "SSWP"}
				for n := 0; n < 25; n++ {
					res, err := c.Run(context.Background(), &apiv1.RunRequest{
						Algorithm: algos[(seed+n)%len(algos)],
						Source:    (seed*31 + n) % 200,
					})
					if err != nil {
						var werr *apiv1.Error
						if errors.As(err, &werr) &&
							(werr.Code == apiv1.CodeQuotaExhausted || werr.Code == apiv1.CodeQueueFull) {
							sheds.Add(1)
							continue
						}
						t.Errorf("soak request: %v", err)
						return
					}
					ok.Add(1)
					if res.Cached {
						hits.Add(1)
					}
					if res.Window.To-res.Window.From != 5 {
						t.Errorf("soak response window %+v is not 6 snapshots wide", res.Window)
						return
					}
				}
			}(c, tn*4+i)
		}
	}
	stop := make(chan struct{})
	var ingestWG sync.WaitGroup
	ingestWG.Add(1)
	go func() { // live ingest: advance the window while serving
		defer ingestWG.Done()
		for i := 0; i < 6; i++ { // 12 snapshots, window width 6: room for 6 slides
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				if err := w.Slide(); err != nil {
					t.Errorf("slide under load: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	ingestWG.Wait()
	if ok.Load() == 0 {
		t.Fatal("soak made no successful requests")
	}
	t.Logf("soak: %d ok (%d cache hits), %d shed", ok.Load(), hits.Load(), sheds.Load())
}
