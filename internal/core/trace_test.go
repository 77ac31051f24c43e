package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/faults"
	"commongraph/internal/obs"
)

// scheduleEdgeRefs enumerates every edge of the schedule tree by the
// nodeRef of its destination — unique because each tree node has exactly
// one incoming edge.
func scheduleEdgeRefs(sched *Schedule) map[string]bool {
	refs := make(map[string]bool)
	var walk func(n *ScheduleNode)
	walk = func(n *ScheduleNode) {
		for _, e := range n.Edges {
			refs[nodeRef(e.To)] = false
			walk(e.To)
		}
	}
	walk(sched.Root)
	return refs
}

// TestWorkSharingParallelTraceCoversEverySchedule runs the parallel
// Work-Sharing strategy over a ≥8-snapshot window with tracing on and
// proves the trace is complete at schedule granularity: one common.solve
// span, one subtree span per root edge, and a schedule.edge span whose
// "to" attribute names each edge of the executed plan — then that the
// export is well-formed Chrome trace_event JSON with the same events.
func TestWorkSharingParallelTraceCoversEverySchedule(t *testing.T) {
	s, _ := randomStore(77, 8, 60, 60) // 9 snapshots
	w := Window{Store: s, From: 0, To: 8}
	rep, err := BuildRep(w)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	root := tr.StartSpan("evaluate")
	cfg := Config{Algo: algo.BFS{}, Source: 0, Trace: root}
	res, sched, err := evaluateWSP(rep, cfg)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != 9 {
		t.Fatalf("snapshots=%d", len(res.Snapshots))
	}

	refs := scheduleEdgeRefs(sched)
	if len(refs) < 8 {
		t.Fatalf("schedule for width 9 has only %d edges", len(refs))
	}
	var solves, subtrees, edges int
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "common.solve":
			solves++
		case "subtree":
			subtrees++
		case "schedule.edge":
			edges++
			to := ev.Attr("to")
			if _, ok := refs[to]; !ok {
				t.Errorf("schedule.edge span for %q not in the executed plan", to)
			}
			refs[to] = true
		}
	}
	for ref, seen := range refs {
		if !seen {
			t.Errorf("schedule edge →%s has no schedule.edge span", ref)
		}
	}
	if solves != 1 {
		t.Errorf("common.solve spans = %d, want 1", solves)
	}
	if subtrees != len(sched.Root.Edges) {
		t.Errorf("subtree spans = %d, want one per root edge (%d)", subtrees, len(sched.Root.Edges))
	}
	if edges != len(refs) {
		t.Errorf("schedule.edge spans = %d, plan edges = %d", edges, len(refs))
	}

	// The Chrome export must parse and carry every buffered event.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if len(out.TraceEvents) != len(tr.Events()) {
		t.Fatalf("exported %d events, buffered %d", len(out.TraceEvents), len(tr.Events()))
	}
	for _, ce := range out.TraceEvents {
		if ce.Phase != "X" && ce.Phase != "i" {
			t.Fatalf("unexpected trace_event phase %q", ce.Phase)
		}
	}
}

// TestDisabledTracerEmitsNothing pins the free default: with no tracer
// configured the same evaluation records zero events and allocates no
// span machinery (the nil fast path the hot loops rely on).
func TestDisabledTracerEmitsNothing(t *testing.T) {
	s, _ := randomStore(78, 8, 40, 40)
	rep, err := BuildRep(Window{Store: s, From: 0, To: 8})
	if err != nil {
		t.Fatal(err)
	}
	var tr *obs.Tracer // nil: disabled
	root := tr.StartSpan("evaluate")
	if root != nil {
		t.Fatal("nil tracer must return nil spans")
	}
	if _, _, err := evaluateWSP(rep, Config{Algo: algo.BFS{}, Source: 0, Trace: root}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Events(); got != nil {
		t.Fatalf("disabled tracer recorded %d events", len(got))
	}
}

// TestUntracedWalkFormatsNothing: a span attribute is rendered only for a
// live span, so a walk with no tracer never calls nodeRef, on any
// strategy or on the degraded path, while a traced walk still names its
// schedule edges.
func TestUntracedWalkFormatsNothing(t *testing.T) {
	f := newFaultFixture(t, 419, 8)
	var calls atomic.Int64 // the parallel strategies render on their units' goroutines
	defer func(orig func(*ScheduleNode) string) { nodeRef = orig }(nodeRef)
	nodeRef = func(n *ScheduleNode) string { calls.Add(1); return fmt.Sprintf("%d,%d", n.I, n.J) }
	walk := func(cfg Config) {
		t.Helper()
		for name, run := range f.strategies() {
			if _, err := run(cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		cfg.Degrade = true
		disarm := faults.Arm(&faults.Plan{Specs: []faults.Spec{{Point: faults.CoreSubtreeWalk, After: 1, Times: 1}}})
		defer disarm()
		if res, err := WorkSharingParallel(f.rep, f.tg, f.sched, cfg); err != nil || !res.Degraded {
			t.Fatalf("armed walk: err %v, degraded %v", err, res != nil && res.Degraded)
		}
	}
	walk(f.cfg)
	if n := calls.Load(); n != 0 {
		t.Fatalf("an untraced walk rendered %d node refs", n)
	}
	cfg := f.cfg
	cfg.Trace = obs.New().StartSpan("evaluate")
	walk(cfg)
	if calls.Load() == 0 {
		t.Fatal("a traced walk rendered no node refs: the count sees nothing")
	}
}
