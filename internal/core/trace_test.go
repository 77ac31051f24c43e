package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"commongraph/internal/algo"
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
