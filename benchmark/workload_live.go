package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"commongraph"
	apiv1 "commongraph/api/v1"
)

// live-slide is writes beside reads, as in `cgserve store` with a
// writer: every op commits a transition to the durable store, slides the
// maintained window and asks the service for the fresh answer. Every
// read follows a commit, so no cache helps; MaintainedRep.Slide stands in
// for BuildRep, and the segment write, manifest swap and fsync sit on
// the path with background compaction beside it.
const (
	livePersisted = 16   // snapshots persisted before the store is reopened
	liveUpdates   = 1000 // per transition
	liveWarmUp    = 20   // ops run in set-up
	liveVerify    = 50   // every 50th op's newest snapshot is verified
)

type liveInputs struct {
	h   *history
	rot rotation
}

func generateLiveSlide(cfg runConfig, ops, period int) (inputs, error) {
	h, err := generateHistory(cfg.seed, 0x6c76, livePersisted-1+liveWarmUp+ops, liveUpdates)
	if err != nil {
		return nil, err
	}
	rot, err := newRotation(h, cfg.seed)
	if err != nil {
		return nil, err
	}
	return &liveInputs{h: h, rot: rot}, nil
}

func (in *liveInputs) fingerprints(n int) []string {
	return []string{in.h.edgeFingerprint(), rotationFingerprint(in.rot, liveWarmUp+n, -1, -1)}
}

func (in *liveInputs) setUp(cfg runConfig, probe *report) (_ instance, err error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "live-slide-")
	if err != nil {
		return nil, err
	}
	inst := &liveInstance{in: in, dir: dir}
	defer func() {
		if err != nil {
			inst.close()
		}
	}()

	g, err := in.h.graph(livePersisted - 1)
	if err != nil {
		return nil, err
	}
	store := filepath.Join(dir, "store")
	t := time.Now()
	gs, err := g.Persist(store)
	if err != nil {
		return nil, err
	}
	if err := gs.Close(); err != nil {
		return nil, err
	}
	persist := time.Since(t)
	if probe != nil {
		// The mapped open is a layer probe only; the workload itself runs
		// on the default open, like `cgserve store`.
		t = time.Now()
		mapped, err := commongraph.OpenStoreWith(store, commongraph.StoreOptions{MapSegments: true})
		if err != nil {
			return nil, err
		}
		probe.layer("store.open_mmap_ms", ms(time.Since(t)), "")
		if err := mapped.Close(); err != nil {
			return nil, err
		}
	}
	t = time.Now()
	if inst.gs, err = commongraph.OpenStore(store); err != nil {
		return nil, err
	}
	if probe != nil {
		probe.layer("store.persist_ms", ms(persist), "")
		probe.layer("store.open_ms", ms(time.Since(t)), "")
	}
	inst.g = inst.gs.Graph()
	last := inst.g.NumSnapshots() - 1
	if inst.w, err = inst.g.Watch(last-(livePersisted-1), last); err != nil {
		return nil, err
	}
	inst.w.PersistMaintenance(inst.gs)
	inst.sv = probeServeWatch(inst.w)
	if inst.client, err = inst.sv.client(); err != nil {
		return nil, err
	}
	for ; inst.done < cfg.n(liveWarmUp, 1); inst.done++ {
		if op := inst.op(inst.done, nil); op.err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", inst.done, op.err)
		}
	}
	return inst, nil
}

type liveInstance struct {
	in     *liveInputs
	dir    string
	gs     *commongraph.GraphStore
	g      *commongraph.EvolvingGraph
	w      *commongraph.Watcher
	sv     *served
	client *apiv1.Client
	done   int // ops applied so far, warm-up included
}

type liveOp struct {
	res     *apiv1.RunResult
	version int // the snapshot the op committed
	err     error
}

// op commits transition i (counted from the end of the persisted
// history), slides the window and reads the fresh answer. Its latency is
// the time to that answer.
func (l *liveInstance) op(i int, rec *recorder) liveOp {
	tr := l.in.h.trs[livePersisted-1+i]
	q := l.in.rot.query(i)
	var out liveOp
	root := rec.begin("op", -1, i)
	defer rec.end(root)
	id := rec.begin("store.commit", root, i)
	out.version, out.err = l.gs.ApplyUpdates(tr.adds, tr.dels)
	rec.end(id)
	if out.err != nil {
		return out
	}
	id = rec.begin("core.slide", root, i)
	out.err = l.w.Slide()
	rec.end(id)
	if out.err != nil {
		return out
	}
	id = rec.begin("serve.request", root, i)
	out.res, out.err = l.client.Run(background(), &apiv1.RunRequest{Algorithm: q.Algorithm.Name(), Source: int(q.Source)})
	rec.end(id)
	return out
}

// pass runs the next blocks x blockOps ops. Every liveVerify-th op's newest snapshot is
// checked against the reference while the clocks are stopped: the
// snapshot is still materialised then, and a later check would have to
// rebuild it from the base.
func (l *liveInstance) pass(blocks, blockOps int, rec *recorder, rep *report) (phase, []liveOp) {
	n := blocks * blockOps
	first := l.done
	l.done += n
	ops := make([]liveOp, n)
	ph := runBlocks(blocks, blockOps, func(i int) { ops[i] = l.op(first+i, rec) }, liveVerify, func(i int) {
		if ops[i].err != nil {
			return
		}
		rep.attempted++
		edges, err := l.g.Snapshot(ops[i].version)
		if err != nil {
			rep.fail("verify op %d: %v", first+i, err)
			return
		}
		snaps := ops[i].res.Snapshots
		got := uint64(snaps[len(snaps)-1].Checksum)
		if want := probeReferenceChecksum(l.in.h.n, edges, l.in.rot.query(first+i)); got != want {
			rep.fail("verify op %d at snapshot %d: checksum %016x, reference %016x", first+i, ops[i].version, got, want)
		}
	})
	rep.attempted += n
	for i, op := range ops {
		switch {
		case op.err != nil:
			rep.fail("op %d: %v", first+i, op.err)
		case op.res.Window.To != op.version || len(op.res.Snapshots) != livePersisted:
			rep.fail("op %d: answered window [%d,%d] after committing snapshot %d", first+i, op.res.Window.From, op.res.Window.To, op.version)
		case op.res.Cached:
			rep.fail("op %d: a read after a commit was served from the cache", first+i)
		}
	}
	return ph, ops
}

func (l *liveInstance) timed(blocks, blockOps int, rep *report) phase {
	ph, _ := l.pass(blocks, blockOps, nil, rep)
	return ph
}

// verify has nothing left to do: the pass verified inline, and no two
// ops share a (query, window, generation).
func (l *liveInstance) verify(rep *report) {}

func (l *liveInstance) traced(n int, untraced phase, rec *recorder, rep *report) {
	c0 := probeStoreCounters()
	traced, ops := l.pass(1, n, rec, rep)
	if err := l.w.WaitCompaction(); err != nil {
		rep.attempted++
		rep.fail("background compaction: %v", err)
	}
	c1 := probeStoreCounters()

	inclusive, self := rec.layerTimes()
	commits := make([]float64, 0, n)
	for _, d := range inclusive["store.commit"] {
		commits = append(commits, ms(d))
	}
	cached := 0
	for _, op := range ops {
		if op.res != nil && op.res.Cached {
			cached++
		}
	}
	rep.layer("store.commit_ms", quantile(commits, 0.5), "")
	rep.layer("store.commit_p90_ms", quantile(commits, 0.9), "")
	rep.layer("core.slide_ms", medianMS(inclusive["core.slide"]), "")
	rep.layer("serve.request_ms", medianMS(inclusive["serve.request"]), "")
	rep.layer("serve.hit_share", float64(cached)/float64(n), "")
	rep.layer("store.segment_bytes_per_op", float64(c1.segmentBytes-c0.segmentBytes)/float64(n), "")
	rep.layer("store.compactions", float64(c1.compactions-c0.compactions), "")
	if edges, err := l.g.Snapshot(l.g.NumSnapshots() - 1); err == nil {
		if size, err := dirBytes(filepath.Join(l.dir, "store")); err == nil {
			rep.layer("store.disk_bytes_per_edge", float64(size)/float64(len(edges)), "")
		}
	}
	rep.layer("trace.overhead_ratio", traced.p50()/untraced.p50(), "")
	rep.layer("trace.unattributed_ms", unattributedMS(traced.p50(), self), "")
	rep.note("traced phase: %d ops on the transitions after the timed phase's; base: untraced p50 %.4f ms over the %d ops before", n, untraced.p50(), len(untraced.lat))
}

// close stops the listener, waits for background compactions, closes the
// store and removes its directory.
func (l *liveInstance) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if l.sv != nil {
		l.sv.close()
	}
	if l.w != nil {
		keep(l.w.Close())
	}
	if l.gs != nil {
		keep(l.gs.Close())
	}
	keep(os.RemoveAll(l.dir))
	return first
}
