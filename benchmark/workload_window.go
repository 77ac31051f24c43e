package main

import (
	"fmt"
	"time"

	"commongraph"
)

// windowSpec is a single-caller workload over one fixed window of an
// in-memory evolving graph: dh-wide and ws-many are two instances.
type windowSpec struct {
	snapshots int    // history length
	updates   int    // per transition, half additions and half deletions
	from, to  int    // the evaluated window
	strategy  string // ParseStrategy slug
	salt      uint64 // separates the workloads' update streams
}

// warmUpOps run during set-up: they fill the snapshot cache and let the
// runtime size its heap before the first timed op.
const warmUpOps = 10

// dh-wide is the Table 4 shape: Direct-Hop over a wide window with large
// batches, so BuildRep, overlay construction and incremental streaming
// of 36 large batches carry the op.
func generateDHWide(cfg runConfig, ops, period int) (inputs, error) {
	return generateWindow(cfg, windowSpec{snapshots: 48, updates: 1500, from: 6, to: 41, strategy: "direct-hop", salt: 0x6468})
}

// ws-many uses the same layers differently (Fig. 9's left side): many
// snapshots and small batches, so the Triangular Grid, the Steiner tree,
// labels and over a hundred small overlays carry the op.
func generateWSMany(cfg runConfig, ops, period int) (inputs, error) {
	return generateWindow(cfg, windowSpec{snapshots: 64, updates: 300, from: 4, to: 59, strategy: "work-sharing", salt: 0x7773})
}

type windowInputs struct {
	spec     windowSpec
	strategy commongraph.Strategy
	h        *history
	rot      rotation
}

func generateWindow(cfg runConfig, spec windowSpec) (inputs, error) {
	strategy, err := commongraph.ParseStrategy(spec.strategy)
	if err != nil {
		return nil, err
	}
	h, err := generateHistory(cfg.seed, spec.salt, spec.snapshots-1, spec.updates)
	if err != nil {
		return nil, err
	}
	rot, err := newRotation(h, cfg.seed)
	if err != nil {
		return nil, err
	}
	return &windowInputs{spec: spec, strategy: strategy, h: h, rot: rot}, nil
}

func (in *windowInputs) fingerprints(n int) []string {
	return []string{in.h.edgeFingerprint(), rotationFingerprint(in.rot, n, in.spec.from, in.spec.to)}
}

func (in *windowInputs) setUp(cfg runConfig, probe *report) (instance, error) {
	g, err := in.h.graph(len(in.h.trs))
	if err != nil {
		return nil, err
	}
	inst := &windowInstance{in: in, g: g}
	for i := 0; i < cfg.n(warmUpOps, 1); i++ {
		if _, err := inst.run(i, in.strategy); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return inst, nil
}

type windowInstance struct {
	in *windowInputs
	g  *commongraph.EvolvingGraph
	// results are the timed phase's: verify checks ops 0..4, one per
	// algorithm on the first source, by reference, and the traced phase
	// compares its replays with the first of them.
	results []*commongraph.Result
}

func (w *windowInstance) run(i int, strategy commongraph.Strategy) (*commongraph.Result, error) {
	return w.g.Run(background(), commongraph.Request{
		Query:    w.in.rot.query(i),
		Window:   commongraph.Window{From: w.in.spec.from, To: w.in.spec.to},
		Strategy: strategy,
	})
}

func checksums(res *commongraph.Result) []uint64 {
	out := make([]uint64, len(res.Snapshots))
	for i, s := range res.Snapshots {
		out[i] = s.Checksum
	}
	return out
}

// pass runs ops [0, blocks x blockOps) through EvolvingGraph.Run and
// checks them.
func (w *windowInstance) pass(blocks, blockOps int, rep *report) (phase, []*commongraph.Result) {
	n := blocks * blockOps
	results := make([]*commongraph.Result, n)
	errs := make([]error, n)
	ph := runBlocks(blocks, blockOps, func(i int) { results[i], errs[i] = w.run(i, w.in.strategy) }, 0, nil)
	rep.attempted += n
	agree := agreement{}
	for i := range results {
		if errs[i] != nil {
			rep.fail("op %d: %v", i, errs[i])
			continue
		}
		if len(results[i].Snapshots) != w.in.spec.to-w.in.spec.from+1 {
			rep.fail("op %d: %d snapshots", i, len(results[i].Snapshots))
			continue
		}
		agree.check(fmt.Sprint(i%w.in.rot.cycle()), vectorHash(checksums(results[i])), rep)
	}
	return ph, results
}

func (w *windowInstance) timed(blocks, blockOps int, rep *report) (ph phase) {
	ph, w.results = w.pass(blocks, blockOps, rep)
	return ph
}

// verify compares one source per algorithm, at the first, middle and last
// snapshot of the window, with the Bellman-Ford reference on the whole
// materialised snapshot.
func (w *windowInstance) verify(rep *report) {
	from, to := w.in.spec.from, w.in.spec.to
	for _, idx := range []int{from, (from + to) / 2, to} {
		edges, err := w.g.Snapshot(idx)
		if err != nil {
			rep.fail("verify: snapshot %d: %v", idx, err)
			continue
		}
		for i := 0; i < len(w.in.rot.algos) && i < len(w.results); i++ {
			if r := w.results[i]; r == nil || len(r.Snapshots) != to-from+1 {
				continue // already counted as a failed op
			}
			rep.attempted++
			q := w.in.rot.query(i)
			got := w.results[i].Snapshots[idx-from].Checksum
			if want := probeReferenceChecksum(w.in.h.n, edges, q); got != want {
				rep.fail("verify: %s from %d at snapshot %d: checksum %016x, reference %016x", q.Algorithm.Name(), q.Source, idx, got, want)
			}
		}
	}
}

func (w *windowInstance) traced(n int, base phase, rec *recorder, rep *report) {
	results := w.results // ops 0..n-1 are the ops the traced phase replays

	// The same window through the streaming baseline: the paper's Table 4
	// ratio, as a reference only.
	const kickstarterReps = 5
	ksLat := make([]float64, 0, kickstarterReps)
	ksSums := make([][]uint64, 0, kickstarterReps)
	for i := 0; i < kickstarterReps; i++ {
		t := time.Now()
		res, err := w.run(i, commongraph.KickStarter)
		ksLat = append(ksLat, ms(time.Since(t)))
		rep.attempted++
		if err != nil {
			rep.fail("kickstarter op %d: %v", i, err)
			continue
		}
		ksSums = append(ksSums, checksums(res))
	}

	for i, sums := range ksSums {
		if i < n && results[i] != nil && vectorHash(sums) != vectorHash(checksums(results[i])) {
			rep.fail("kickstarter op %d disagrees with %s", i, w.in.spec.strategy)
		}
	}

	// One snapshot's checksum on a solved state, for the computed
	// checksum child of the Work-Sharing execute span.
	win := probeWindow(w.g, w.in.spec.from, w.in.spec.to)
	var checksumCost time.Duration
	if w.in.strategy == commongraph.WorkSharing {
		edges, err := w.g.Snapshot(win.From)
		if err != nil {
			rep.fail("traced: %v", err)
			return
		}
		pair, _ := probePairBuild(w.in.h.n, edges)
		st := probeSolve(pair, w.in.rot.query(0))
		t := time.Now()
		probeChecksum(st)
		checksumCost = time.Since(t)
	}

	var counts opCounts
	for i := 0; i < n; i++ {
		var sums []uint64
		var err error
		q := w.in.rot.query(i)
		if w.in.strategy == commongraph.WorkSharing {
			sums, counts, err = replayWorkSharing(rec, i, win, q, checksumCost)
		} else {
			sums, counts, err = replayDirectHop(rec, i, win, q)
		}
		rep.attempted++
		if err != nil {
			rep.fail("traced op %d: %v", i, err)
			continue
		}
		if results[i] != nil && vectorHash(sums) != vectorHash(checksums(results[i])) {
			rep.fail("traced op %d: the replay's checksums differ from Run's", i)
		}
	}

	inclusive, self := rec.layerTimes()
	for _, l := range []struct{ span, note string }{
		{"core.build_rep", ""}, {"snapshot.get_version", "replayed"}, {"graph.pair_build", "replayed"},
		{"core.build_tg", ""}, {"core.steiner", ""}, {"core.labels", ""}, {"core.execute", ""},
		{"core.checksum", ""}, {"delta.overlay_build", ""}, {"engine.solve", ""},
		{"engine.incr_add", ""}, {"engine.clone", ""},
	} {
		note := l.note
		if w.in.strategy == commongraph.WorkSharing {
			switch l.span {
			case "delta.overlay_build", "engine.solve", "engine.incr_add", "engine.clone":
				note = "reported"
			case "core.checksum":
				note = "computed"
			}
		}
		rep.layer(l.span+"_ms", medianMS(inclusive[l.span]), note)
	}
	var additions, edges []float64
	for _, r := range results[:n] {
		if r != nil {
			additions = append(additions, float64(r.AdditionsProcessed))
			edges = append(edges, float64(r.EdgesEvaluated))
		}
	}
	// The untraced base is the timed phase's measurements of the same n
	// queries: each block repeats them at its first n positions.
	var same []float64
	for i, d := range base.lat {
		if i%w.in.rot.cycle() < n {
			same = append(same, ms(d))
		}
	}
	opP50 := quantile(same, 0.5)
	ksP50 := quantile(ksLat, 0.5)
	rep.layer("core.additions_per_op", quantile(additions, 0.5), "")
	rep.layer("engine.edges_per_op", quantile(edges, 0.5), "")
	rep.layer("delta.overlay_builds_per_op", float64(counts.overlayBuilds), "computed")
	rep.layer("delta.overlay_edges_per_op", float64(counts.overlayEdges), "computed")
	rep.layer("engine.clone_mb_per_op", float64(counts.clones*stateBytes(w.in.h.n))/1e6, "computed")
	rep.layer("kickstarter.op_ms", ksP50, "")
	rep.layer("kickstarter.speedup", ksP50/opP50, "")
	rep.layer("trace.overhead_ratio", medianMS(inclusive["op"])/opP50, "")
	rep.layer("trace.unattributed_ms", unattributedMS(opP50, self), "")
	rep.note("traced phase: %d ops; bases: untraced p50 of the same ops %.4f ms over %d samples, kickstarter p50 %.4f ms over %d reps", n, opP50, len(same), ksP50, kickstarterReps)
}

func (w *windowInstance) close() error { return nil }
