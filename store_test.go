package commongraph

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"commongraph/internal/faults"
	"commongraph/internal/gen"
	"commongraph/internal/obs"
)

// TestPersistReopenDifferential is the acceptance differential: a graph
// persisted to disk and reopened must answer every query identically to
// the original under every evaluation strategy — same checksums, same
// reached counts, same per-vertex values.
func TestPersistReopenDifferential(t *testing.T) {
	g, n := buildEvolving(t, 101, 6, 60, 60)
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenEvolvingGraph(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumVertices() != n || r.NumSnapshots() != g.NumSnapshots() {
		t.Fatalf("reopened shape: n=%d snaps=%d, want n=%d snaps=%d",
			r.NumVertices(), r.NumSnapshots(), n, g.NumSnapshots())
	}
	last := g.NumSnapshots() - 1
	for _, algo := range []Algorithm{BFS, SSSP} {
		for _, s := range Strategies() {
			req := Request{
				Query:    Query{Algorithm: algo, Source: 0},
				Window:   Window{From: 0, To: last},
				Strategy: s,
				Options:  Options{KeepValues: true},
			}
			want, err := g.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%s/%v in-memory: %v", algo.Name(), s, err)
			}
			got, err := r.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%s/%v reopened: %v", algo.Name(), s, err)
			}
			if len(got.Snapshots) != len(want.Snapshots) {
				t.Fatalf("%s/%v: %d snapshots, want %d", algo.Name(), s, len(got.Snapshots), len(want.Snapshots))
			}
			for k := range want.Snapshots {
				a, b := want.Snapshots[k], got.Snapshots[k]
				if a.Checksum != b.Checksum || a.Reached != b.Reached || a.Index != b.Index {
					t.Fatalf("%s/%v snapshot %d: reopened store disagrees (checksum %016x vs %016x)",
						algo.Name(), s, k, a.Checksum, b.Checksum)
				}
				for v := 0; v < n; v++ {
					if a.Values[v] != b.Values[v] {
						t.Fatalf("%s/%v snapshot %d vertex %d: %v vs %v",
							algo.Name(), s, k, v, a.Values[v], b.Values[v])
					}
				}
			}
		}
	}
}

// streamUpdate is one scripted raw update for the durable-ingest tests.
type streamUpdate struct {
	del  bool
	edge Edge
}

// script builds a deterministic 44-update stream over an empty graph:
// ten windows of [add, add, add-then-delete] (net two additions each)
// and one fully cancelling window, at batch size 4.
func script() []streamUpdate {
	var us []streamUpdate
	for i := 0; i < 10; i++ {
		a := Edge{Src: VertexID(2 * i), Dst: VertexID(2*i + 1), W: 1}
		b := Edge{Src: VertexID(2*i + 1), Dst: VertexID(2 * i), W: 2}
		c := Edge{Src: VertexID(2 * i), Dst: VertexID(63 - i), W: 3}
		us = append(us,
			streamUpdate{edge: a}, streamUpdate{edge: b},
			streamUpdate{edge: c}, streamUpdate{del: true, edge: c})
	}
	x := Edge{Src: 40, Dst: 41, W: 9}
	y := Edge{Src: 41, Dst: 42, W: 9}
	us = append(us,
		streamUpdate{edge: x}, streamUpdate{del: true, edge: x},
		streamUpdate{edge: y}, streamUpdate{del: true, edge: y})
	return us
}

func push(in *Ingestor, u streamUpdate) error {
	if u.del {
		return in.Delete(u.edge)
	}
	return in.Add(u.edge)
}

// referenceGraph replays the whole script through the in-memory ingestor.
func referenceGraph(t *testing.T, batch int) *EvolvingGraph {
	t.Helper()
	g := New(64, nil)
	in, err := g.Ingestor(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range script() {
		if err := push(in, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	return g
}

func sameFinalSnapshot(t *testing.T, got, want *EvolvingGraph, what string) {
	t.Helper()
	if got.NumSnapshots() != want.NumSnapshots() {
		t.Fatalf("%s: %d snapshots, want %d", what, got.NumSnapshots(), want.NumSnapshots())
	}
	a, err := got.Snapshot(got.NumSnapshots() - 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.Snapshot(want.NumSnapshots() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%s: final snapshot has %d edges, want %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: final snapshot edge %d is %v, want %v", what, i, a[i], b[i])
		}
	}
}

// TestDurableIngestMatchesInMemory runs the script through a durable
// ingestor and checks both the live graph and a fresh reopen against the
// in-memory reference — including the fully cancelling window, which
// must advance the WAL commit pointer without creating a snapshot.
func TestDurableIngestMatchesInMemory(t *testing.T) {
	want := referenceGraph(t, 4)
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := New(64, nil).Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gs.Ingestor(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Ingestor(4); err == nil {
		t.Fatal("second concurrent ingestor allowed")
	}
	for _, u := range script() {
		if err := push(in, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	sameFinalSnapshot(t, gs.Graph(), want, "live durable graph")
	if got, wantAck := gs.Acknowledged(), uint64(len(script())); got != wantAck {
		t.Fatalf("acknowledged %d raw updates, want %d", got, wantAck)
	}
	// A closed ingestor frees the slot; its stream is over.
	if err := in.Add(Edge{Src: 1, Dst: 2, W: 1}); err == nil {
		t.Fatal("push after Close succeeded")
	}
	if _, err := gs.Ingestor(4); err != nil {
		t.Fatalf("ingestor slot not released by Close: %v", err)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovered() != 0 {
		t.Fatalf("clean close left %d updates to replay", r.Recovered())
	}
	sameFinalSnapshot(t, r.Graph(), want, "reopened durable graph")
}

// TestDurableIngestCrashReplayMatrix kills the durable write path at
// each store boundary mid-stream, reopens the directory as a crashed
// process' successor would, resumes the stream from the position the
// store reports (Acknowledged + Recovered), and requires the final state
// to be byte-identical to the uninterrupted run — updates are applied
// exactly once no matter where the crash landed.
func TestDurableIngestCrashReplayMatrix(t *testing.T) {
	want := referenceGraph(t, 4)
	after := map[faults.Point]int{
		faults.StoreWALAppend:    13, // mid-stream push (one append per push)
		faults.StoreWALSync:      13, // post-write fsync of the same append
		faults.StoreSegmentWrite: 4,  // segment writes: one per non-empty window
		faults.StoreManifestSwap: 3,  // swaps: one per committed window
		faults.StoreWALRotate:    5,  // rotations: one per committed window
	}
	for p, skip := range after {
		t.Run(string(p), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "s")
			gs, err := New(64, nil).Persist(dir)
			if err != nil {
				t.Fatal(err)
			}
			in, err := gs.Ingestor(4)
			if err != nil {
				t.Fatal(err)
			}
			disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: p, After: skip, Times: 1}}})
			var failedAt = -1
			for i, u := range script() {
				if err := push(in, u); err != nil {
					if !errors.Is(err, faults.ErrInjected) {
						disarm()
						t.Fatalf("update %d: non-injected failure: %v", i, err)
					}
					failedAt = i
					break
				}
			}
			fired := faults.Hits(p) > skip
			disarm()
			if failedAt < 0 {
				// The post-commit WAL rotation is the one boundary whose
				// failure never surfaces: the manifest swap had already
				// durably committed the window, so the push succeeds and
				// the stream runs to completion.
				if p != faults.StoreWALRotate || !fired {
					t.Fatalf("point %s never fired", p)
				}
				if err := in.Close(); err != nil {
					t.Fatal(err)
				}
				sameFinalSnapshot(t, gs.Graph(), want, "live graph after tolerated trim failure")
				gs.Close()
				r, err := OpenStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if got := int(r.Acknowledged()) + r.Recovered(); got != len(script()) {
					t.Fatalf("resume position %d after tolerated trim failure, want %d", got, len(script()))
				}
				sameFinalSnapshot(t, r.Graph(), want, "reopened graph after tolerated trim failure")
				return
			}
			gs.Close() // the crash: only the directory survives

			r, err := OpenStore(dir)
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", p, err)
			}
			defer r.Close()
			// The store's resume protocol: everything at or below
			// Acknowledged is in snapshots, the next Recovered updates
			// replay into the ingestor, the rest must be re-sent.
			// A failed push may still have journaled (or even committed)
			// its update before erroring, so resume can reach failedAt+1 —
			// but never beyond what the producer actually sent.
			resume := int(r.Acknowledged()) + r.Recovered()
			if resume > failedAt+1 {
				t.Fatalf("store claims %d updates consumed but only %d were ever pushed", resume, failedAt+1)
			}
			rin, err := r.Ingestor(4)
			if err != nil {
				t.Fatalf("replay ingestor after crash at %s: %v", p, err)
			}
			for i, u := range script()[resume:] {
				if err := push(rin, u); err != nil {
					t.Fatalf("resumed update %d: %v", resume+i, err)
				}
			}
			if err := rin.Close(); err != nil {
				t.Fatal(err)
			}
			sameFinalSnapshot(t, r.Graph(), want, "resumed graph")

			// And the recovered run itself reopens clean.
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := OpenEvolvingGraph(dir)
			if err != nil {
				t.Fatal(err)
			}
			sameFinalSnapshot(t, final, want, "final reopen")
		})
	}
}

// TestIngestorSeedFailureRetainsRecovered: if replaying the recovered
// window into a fresh ingestor fails (here: the segment write of the
// window's commit), the recovered updates must survive in the GraphStore
// so a retried Ingestor replays them — Recovered() promised they were
// replayable, and dropping them would durably lose acknowledged updates.
func TestIngestorSeedFailureRetainsRecovered(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := New(64, nil).Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gs.Ingestor(4)
	if err != nil {
		t.Fatal(err)
	}
	a := Edge{Src: 0, Dst: 1, W: 1}
	b := Edge{Src: 1, Dst: 2, W: 2}
	if err := in.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := in.Add(b); err != nil {
		t.Fatal(err)
	}
	gs.Close() // crash mid-window: both updates are journaled, not committed

	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovered() != 2 {
		t.Fatalf("recovered %d updates, want 2", r.Recovered())
	}
	// Batch size 2 closes the recovered window inside Seed; the injected
	// segment-write failure aborts its commit.
	disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.StoreSegmentWrite, Times: 1}}})
	_, err = r.Ingestor(2)
	disarm()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Ingestor with failing seed = %v, want the injected fault", err)
	}
	if r.Recovered() != 2 {
		t.Fatalf("failed seed dropped the recovered window: Recovered() = %d, want 2", r.Recovered())
	}
	// The failed attempt released the slot; the retry replays the window.
	rin, err := r.Ingestor(2)
	if err != nil {
		t.Fatalf("retried Ingestor: %v", err)
	}
	if err := rin.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Recovered() != 0 || r.Acknowledged() != 2 {
		t.Fatalf("after retry: Recovered()=%d Acknowledged()=%d, want 0 and 2", r.Recovered(), r.Acknowledged())
	}
	last, err := r.Graph().Snapshot(r.Graph().NumSnapshots() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(last) != 2 || last[0] != a || last[1] != b {
		t.Fatalf("replayed snapshot %v, want [%v %v]", last, a, b)
	}
}

// TestWatcherPersistCompaction slides a persisted watcher's window and
// checks that background compaction folds the passed-over snapshots into
// the store's base: a fresh open starts at the window's origin and still
// answers queries over the remaining history identically.
func TestWatcherPersistCompaction(t *testing.T) {
	g, _ := buildEvolving(t, 77, 5, 50, 50)
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := g.Watch(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.PersistMaintenance(gs)
	if err := w.Slide(); err != nil { // window [1,3]
		t.Fatal(err)
	}
	if err := w.Slide(); err != nil { // window [2,4]
		t.Fatal(err)
	}
	if err := w.WaitCompaction(); err != nil {
		t.Fatal(err)
	}
	if got := gs.Origin(); got != 0 {
		t.Fatalf("open-time origin changed to %d", got)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Origin() != 2 {
		t.Fatalf("reopened origin %d, want 2 (window slid twice)", r.Origin())
	}
	rg := r.Graph()
	if rg.NumSnapshots() != g.NumSnapshots()-2 {
		t.Fatalf("reopened snapshots %d, want %d", rg.NumSnapshots(), g.NumSnapshots()-2)
	}
	// Reopened version i is original version i+2: results must agree.
	req := Request{
		Query:    Query{Algorithm: SSSP, Source: 0},
		Window:   Window{From: 0, To: rg.NumSnapshots() - 1},
		Strategy: WorkSharing,
	}
	got, err := rg.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Window = Window{From: 2, To: g.NumSnapshots() - 1}
	want, err := g.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Snapshots {
		if got.Snapshots[k].Checksum != want.Snapshots[k].Checksum ||
			got.Snapshots[k].Reached != want.Snapshots[k].Reached {
			t.Fatalf("compacted store disagrees at window snapshot %d", k)
		}
	}
}

// TestSlideCompactionWaitsForTheRatio: small batches against a base they
// are no eighth of do not fold slide by slide. The overlays behind the
// window stay on disk, and a reopen still starts at the old origin with
// every snapshot answerable, until the slide that brings the backlog to
// 1/8 of the base — and that slide folds all of it in one compaction.
func TestSlideCompactionWaitsForTheRatio(t *testing.T) {
	g, _ := buildEvolving(t, 83, 12, 10, 10)
	last := g.NumSnapshots() - 1
	want := func(from int) *Result {
		res, err := g.Run(context.Background(), Request{Query: Query{Algorithm: SSSP, Source: 0},
			Window: Window{From: from, To: last}, Strategy: WorkSharing})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	agrees := func(r *GraphStore, what string) {
		t.Helper()
		rg, from := r.Graph(), r.Origin()
		if rg.NumSnapshots() != g.NumSnapshots()-from {
			t.Fatalf("%s: %d snapshots from origin %d, want %d", what, rg.NumSnapshots(), from, g.NumSnapshots()-from)
		}
		got, err := rg.Run(context.Background(), Request{Query: Query{Algorithm: SSSP, Source: 0},
			Window: Window{From: 0, To: rg.NumSnapshots() - 1}, Strategy: WorkSharing})
		if err != nil {
			t.Fatal(err)
		}
		for k, snap := range want(from).Snapshots {
			if got.Snapshots[k].Checksum != snap.Checksum || got.Snapshots[k].Reached != snap.Reached {
				t.Fatalf("%s: snapshot %d disagrees with the never-compacted graph", what, from+k)
			}
		}
	}
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, base, err := gs.s.FoldBacklog(0)
	if err != nil {
		t.Fatal(err)
	}
	// Every transition holds 20 edges; the fold is due at the first slide
	// whose backlog times foldRatio reaches the base.
	due := (base + 20*foldRatio - 1) / (20 * foldRatio)
	if due < 3 || due+2 > last {
		t.Fatalf("a %d-edge base folds at slide %d: the fixture no longer tests a deferred fold", base, due)
	}
	slideTo := func(gs *GraphStore, w *Watcher, from int) {
		t.Helper()
		for f, _ := w.Window(); f < from; f, _ = w.Window() {
			if err := w.Slide(); err != nil {
				t.Fatal(err)
			}
			if err := w.WaitCompaction(); err != nil {
				t.Fatal(err)
			}
		}
	}
	compactions := obs.Compactions().Value()
	w, err := g.Watch(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.PersistMaintenance(gs)
	slideTo(gs, w, due-1)
	if got := gs.s.BaseVersion(); got != 0 || obs.Compactions().Value() != compactions {
		t.Fatalf("%d slides under the ratio folded the base to version %d", due-1, got)
	}
	if err := errors.Join(w.Close(), gs.Close()); err != nil {
		t.Fatal(err)
	}

	gs, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Origin() != 0 {
		t.Fatalf("reopened origin %d with the fold still deferred, want 0", gs.Origin())
	}
	agrees(gs, "deferred fold")
	if w, err = gs.Graph().Watch(due-1, due+1); err != nil {
		t.Fatal(err)
	}
	w.PersistMaintenance(gs)
	slideTo(gs, w, due)
	if got := gs.s.BaseVersion(); got != due || obs.Compactions().Value() != compactions+1 {
		t.Fatalf("the slide to %d left the base at version %d after %d compactions, want everything behind the window in one",
			due, got, obs.Compactions().Value()-compactions)
	}
	if err := errors.Join(w.Close(), gs.Close()); err != nil {
		t.Fatal(err)
	}
	if gs, err = OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	if gs.Origin() != due {
		t.Fatalf("reopened origin %d after the fold, want %d", gs.Origin(), due)
	}
	agrees(gs, "after the fold")
}

// TestOneFoldInFlight: a slide that arrives while a fold is running does
// not queue a second one behind it, which would rewrite the base for the
// single snapshot between the two; what it left behind folds with the
// next backlog that reaches the ratio.
func TestOneFoldInFlight(t *testing.T) {
	g, _ := buildEvolving(t, 85, 6, 50, 50)
	gs, err := g.Persist(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	w, err := g.Watch(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.PersistMaintenance(gs)
	compactions := obs.Compactions().Value()
	started, release := make(chan struct{}), make(chan struct{})
	disarm := faults.Arm(&faults.Plan{Observer: func(p faults.Point, hit int) {
		if p == faults.StoreCompact && hit == 1 {
			close(started)
			<-release
		}
	}})
	defer disarm()
	for i := 0; i < 2; i++ { // the second slide's 200-edge backlog is due
		if err := w.Slide(); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	if err := w.Slide(); err != nil { // due again, by the same backlog
		t.Fatal(err)
	}
	close(release)
	if err := w.WaitCompaction(); err != nil {
		t.Fatal(err)
	}
	if got := obs.Compactions().Value() - compactions; got != 1 || gs.s.BaseVersion() != 2 {
		t.Fatalf("%d compactions left the base at version %d, want one fold to version 2", got, gs.s.BaseVersion())
	}
}

// TestWritePathCostGuard pins the write path's cost to the batch, in
// bytes allocated: on an 880 K-edge store (the size of the benchmark's
// live window) a commit of 500 + 500 edges allocates under 1 MB, and a
// slide, averaged over two compaction cycles of the patched common graph,
// under half of one common CSR. Going back to set algebra over whole
// snapshots per commit, or to rewriting the common graph per slide (18 MB
// a slide here), multiplies its figure and fails. A slide's cost follows
// the rows its batch touches, so the graph is as big against the batch as
// the benchmark's: at 200 K edges the same batch touches rows holding
// 30 % of the common graph, not 20 %.
//
// A commit's cost must not grow with its distance from the head index's
// anchor either. The anchor is version 0 from the first commit, and the
// edges touched since only reach 1/8 of the graph (the re-anchor) about
// 110 transitions in, so commits 60-80 transitions in stand 60-80 K
// touched edges away from it. Their median must stay under
// farBytesPerEdge per batch edge: a bound on the batch, not on E. Folding
// every commit into one net delta over the touched edges (1.3 MB a commit
// there) fails it.
func TestWritePathCostGuard(t *testing.T) {
	n, base := gen.RMAT(gen.DefaultRMAT(15, 880_000, 91))
	const width, commits, slides, farFrom, farTo = 4, 10, 40, 60, 80
	const batch, farBytesPerEdge = 1000, 256
	trs, err := gen.Stream(n, base, gen.StreamConfig{Transitions: farTo, Additions: batch / 2, Deletions: batch / 2, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	g := New(n, base)
	for _, tr := range trs[:width-1] {
		if _, err := g.ApplyUpdates(tr.Additions, tr.Deletions); err != nil {
			t.Fatal(err)
		}
	}
	gs, err := g.Persist(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	w, err := g.Watch(0, width-1)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var near, far []uint64
	for i, tr := range trs[width-1:] {
		a := allocated(func() {
			if _, err := gs.ApplyUpdates(tr.Additions, tr.Deletions); err != nil {
				t.Fatal(err)
			}
		})
		switch v := width + i; { // the version the commit made
		case i < commits:
			near = append(near, a)
		case v > farFrom:
			far = append(far, a)
		}
	}
	median := func(a []uint64) uint64 {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		return a[len(a)/2]
	}
	if m := median(near); m >= 1<<20 {
		t.Fatalf("the median commit of %d edges allocated %d bytes on a %d-edge graph, want under 1 MB (all: %v)", batch, m, len(base), near)
	}
	if m := median(far); m >= batch*farBytesPerEdge {
		t.Fatalf("the median commit of %d edges %d-%d transitions past the anchor allocated %d bytes, want under %d a batch edge (all: %v)",
			batch, farFrom, farTo, m, farBytesPerEdge, far)
	}
	t.Logf("median commit: %d bytes near the anchor, %d bytes %d-%d transitions past it", median(near), median(far), farFrom, farTo)
	// Slide until the third compaction: the slides from the first one up
	// to it are two whole cycles, each paying for one compaction.
	var cycles, total uint64
	var compactedAt []int
	for i := 0; i < slides && len(compactedAt) < 3; i++ {
		a := allocated(func() {
			if err := w.Slide(); err != nil {
				t.Fatal(err)
			}
		})
		if w.m.Patched().Compacted {
			compactedAt = append(compactedAt, i)
		}
		if len(compactedAt) > 0 && len(compactedAt) < 3 {
			total += a
			cycles++
		}
	}
	if len(compactedAt) < 3 {
		t.Fatalf("%d slides compacted the common graph %d times, want 3", slides, len(compactedAt))
	}
	w.mu.RLock()
	csr := uint64(w.m.Rep().Base.NumEdges())*8 + uint64(n+1)*4
	w.mu.RUnlock()
	t.Logf("compactions at slides %v, mean %d bytes per slide, common CSR %d bytes", compactedAt, total/cycles, csr)
	if mean := total / cycles; mean*2 >= csr {
		t.Fatalf("a slide allocated %d bytes on average over %d slides (compactions at %v), want under half the %d of one common CSR",
			mean, cycles, compactedAt, csr)
	}
}

// TestPersistRequiresFreshDir documents Persist's refusal to overwrite.
func TestPersistRequiresFreshDir(t *testing.T) {
	g := New(4, []Edge{{Src: 0, Dst: 1, W: 1}})
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	gs.Close()
	if _, err := g.Persist(dir); err == nil {
		t.Fatal("Persist over an existing store succeeded")
	}
}

// TestWatcherCloseStopsCompaction: after Close, slides still maintain the
// in-memory window but their background folds are cancelled — the store
// keeps its origin on reopen and the cancellation is not reported as a
// compaction failure. Close is idempotent.
func TestWatcherCloseStopsCompaction(t *testing.T) {
	g, _ := buildEvolving(t, 78, 5, 50, 50)
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := g.Watch(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.PersistMaintenance(gs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Slide(); err != nil { // in-memory maintenance unaffected
		t.Fatal(err)
	}
	if err := w.WaitCompaction(); err != nil {
		t.Fatalf("cancelled compaction surfaced as an error: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Origin() != 0 {
		t.Fatalf("compaction ran after Close: reopened origin %d, want 0", r.Origin())
	}
}

// TestCompactContextCancelled: a cancelled context skips the fold before
// it starts; a live one compacts exactly like Compact.
func TestCompactContextCancelled(t *testing.T) {
	g, _ := buildEvolving(t, 79, 4, 40, 40)
	dir := filepath.Join(t.TempDir(), "s")
	gs, err := g.Persist(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := gs.CompactContext(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("CompactContext on cancelled ctx = %v, want context.Canceled", err)
	}
	if err := gs.CompactContext(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := gs.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Origin() != 2 {
		t.Fatalf("reopened origin %d, want 2", r.Origin())
	}
}
