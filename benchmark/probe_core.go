package main

import (
	"fmt"
	"time"

	"commongraph"
	"commongraph/internal/core"
	"commongraph/internal/engine"
	"commongraph/internal/graph"
)

// Probe surface, layer core: Window, BuildRep, BuildTG, SteinerGreedy,
// NewSchedule, TG.Labels, WorkSharing and Checksum, reached through
// EvolvingGraph.Store. The replays below walk one op through these the
// way EvolvingGraph.Run does, with a span at each layer boundary.

func probeWindow(g *commongraph.EvolvingGraph, from, to int) core.Window {
	return core.Window{Store: g.Store(), From: from, To: to}
}

// snapshotChecksum is core's per-snapshot result: the reach count and the
// checksum of the state.
func probeChecksum(st *engine.State) uint64 {
	st.Reached()
	return core.Checksum(st)
}

// buildRepTraced times core.BuildRep as a span under root.
func buildRepTraced(rec *recorder, root, op int, w core.Window) (rep *core.Rep, span int, err error) {
	span = rec.begin("core.build_rep", root, op)
	rep, err = core.BuildRep(w)
	rec.end(span)
	return rep, span, err
}

// buildRepReplays times, outside the op's clock, the two calls inside
// core.BuildRep that belong to other layers (materialising the window's
// first snapshot, building the common graph's CSR pair) and attaches
// them to the build_rep span. It runs after the op's root span ended.
func buildRepReplays(rec *recorder, buildRep int, rep *core.Rep) error {
	_, getVersion, err := probeGetVersion(rep.Window.Store, rep.Window.From)
	if err != nil {
		return err
	}
	_, pairBuild := probePairBuild(rep.N, rep.Common)
	rec.child("snapshot.get_version", buildRep, getVersion, "replayed")
	rec.child("graph.pair_build", buildRep, pairBuild, "replayed")
	return nil
}

// opCounts are the exact work counts of one op, taken from the schedule.
type opCounts struct {
	overlayBuilds, overlayEdges, clones int64
}

// replayDirectHop is core.DirectHop step by step: build the
// representation, solve the common graph, then per snapshot build the
// overlay, clone the state, stream the snapshot's batch and checksum.
func replayDirectHop(rec *recorder, op int, w core.Window, q commongraph.Query) ([]uint64, opCounts, error) {
	root := rec.begin("op", -1, op)
	rep, buildRep, err := buildRepTraced(rec, root, op, w)
	if err != nil {
		return nil, opCounts{}, err
	}
	exec := rec.begin("core.execute", root, op)
	var base *engine.State
	rec.during("engine.solve", exec, op, func() { base = probeSolve(rep.Base, q) })
	sums := make([]uint64, len(rep.Deltas))
	var counts opCounts
	for k, batch := range rep.Deltas {
		id := rec.begin("delta.overlay_build", exec, op)
		og := probeOverlay(rep.Base, rep.N, batch)
		rec.end(id)
		id = rec.begin("engine.clone", exec, op)
		st := probeClone(base)
		rec.end(id)
		id = rec.begin("engine.incr_add", exec, op)
		probeIncrementalAdd(og, st, batch.Edges())
		rec.end(id)
		id = rec.begin("core.checksum", exec, op)
		sums[k] = probeChecksum(st)
		rec.end(id)
		counts.overlayBuilds++
		counts.overlayEdges += int64(batch.Len())
		counts.clones++
	}
	rec.end(exec)
	rec.end(root)
	return sums, counts, buildRepReplays(rec, buildRep, rep)
}

// replayWorkSharing stages the Work-Sharing op: representation, grid,
// Steiner tree and schedule are timed one by one, then core.WorkSharing
// runs as one core.execute span. That span is split by the phase times
// its Result reports; the schedule DFS is not reimplemented here.
// checksumCost is the measured cost of one snapshot's checksum.
func replayWorkSharing(rec *recorder, op int, w core.Window, q commongraph.Query, checksumCost time.Duration) ([]uint64, opCounts, error) {
	root := rec.begin("op", -1, op)
	rep, buildRep, err := buildRepTraced(rec, root, op, w)
	if err != nil {
		return nil, opCounts{}, err
	}
	id := rec.begin("core.build_tg", root, op)
	tg, err := core.BuildTG(w)
	rec.end(id)
	if err != nil {
		return nil, opCounts{}, err
	}
	id = rec.begin("core.steiner", root, op)
	tree := core.SteinerGreedy(tg)
	rec.end(id)
	id = rec.begin("core.labels", root, op)
	sched, err := core.NewSchedule(tg, tree)
	rec.end(id)
	if err != nil {
		return nil, opCounts{}, err
	}
	exec := rec.begin("core.execute", root, op)
	res, err := core.WorkSharing(rep, tg, sched, core.Config{Algo: q.Algorithm, Source: q.Source})
	rec.end(exec)
	rec.end(root)
	if err != nil {
		return nil, opCounts{}, err
	}
	if len(res.Snapshots) != w.Width() {
		return nil, opCounts{}, fmt.Errorf("work sharing returned %d snapshots for a window of %d", len(res.Snapshots), w.Width())
	}
	sums := make([]uint64, w.Width())
	for _, s := range res.Snapshots { // DFS order; Index is window-relative
		sums[s.Index] = s.Checksum
	}

	// WorkSharing materialises the schedule's labels itself and counts
	// that under OverlayBuild; time the same call on its own to tell the
	// two apart.
	t := time.Now()
	labels := tg.Labels(sched.GridEdges())
	labelsTime := time.Since(t)
	overlay := res.Cost.OverlayBuild - labelsTime
	if overlay < 0 {
		overlay = 0
	}
	rec.child("engine.solve", exec, res.Cost.InitialCompute, "reported")
	rec.child("core.labels", exec, labelsTime, "replayed")
	rec.child("delta.overlay_build", exec, overlay, "reported")
	rec.child("engine.clone", exec, res.Cost.StateClone, "reported")
	rec.child("engine.incr_add", exec, res.Cost.IncrementalAdd, "reported")
	rec.child("core.checksum", exec, time.Duration(w.Width())*checksumCost, "computed")
	return sums, scheduleCounts(sched, rep, labels), buildRepReplays(rec, buildRep, rep)
}

// scheduleCounts walks the schedule tree for the op's exact counts: one
// overlay per schedule edge (the snapshot's own batch at a leaf, the
// spanned labels elsewhere) and one state clone per edge that has a
// later sibling.
func scheduleCounts(sched *core.Schedule, rep *core.Rep, labels map[core.GridEdge]graph.EdgeList) opCounts {
	var c opCounts
	var walk func(n *core.ScheduleNode)
	walk = func(n *core.ScheduleNode) {
		for i, e := range n.Edges {
			c.overlayBuilds++
			if e.To.IsLeaf() {
				c.overlayEdges += int64(rep.Deltas[e.To.I].Len())
			} else {
				for _, s := range e.Spans {
					c.overlayEdges += int64(len(labels[s]))
				}
			}
			if i < len(n.Edges)-1 {
				c.clones++
			}
			walk(e.To)
		}
	}
	walk(sched.Root)
	return c
}
