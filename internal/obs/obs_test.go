package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsFullyNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.StartSpan("root", String("k", "v"))
	if sp != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	// The whole chain must be callable on nils.
	child := sp.StartChild("child")
	fork := sp.Fork("fork")
	child.SetAttr(Int("i", 1))
	child.End()
	fork.End()
	sp.End()
	tr.Event("ev")
	if sp.Tracer() != nil {
		t.Fatal("nil span returned a tracer")
	}
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer has events: %v", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil tracer chrome output is not JSON: %v", err)
	}
}

// TestDisabledPathAllocates guards the disabled fast path: starting and
// ending spans on a nil tracer must not allocate at all.
func TestDisabledPathAllocates(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("s")
		c := sp.StartChild("c")
		c.End()
		sp.End()
		tr.Event("e")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %v times per op, want 0", allocs)
	}
}

func TestSpanNestingAndTracks(t *testing.T) {
	tr := New()
	root := tr.StartSpan("evaluate", String("strategy", "work-sharing"))
	seq := root.StartChild("schedule.edge", Int("to", 3))
	time.Sleep(time.Millisecond)
	seq.End()
	par := root.Fork("subtree")
	par.End()
	root.SetAttr(Int("snapshots", 4))
	root.End()
	tr.Event("fault.injected", String("point", "core.subtree-walk"))

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	byName := map[string]Event{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	if byName["schedule.edge"].Track != byName["evaluate"].Track {
		t.Fatal("sequential child is not on the parent's track")
	}
	if byName["subtree"].Track == byName["evaluate"].Track {
		t.Fatal("forked child shares the parent's track")
	}
	if byName["schedule.edge"].Dur < time.Millisecond {
		t.Fatalf("span duration %v lost the slept time", byName["schedule.edge"].Dur)
	}
	if !byName["fault.injected"].Instant {
		t.Fatal("event is not marked instant")
	}
	if got := byName["evaluate"].Attr("snapshots"); got != "4" {
		t.Fatalf("late SetAttr lost: snapshots=%q", got)
	}
	if got := byName["fault.injected"].Attr("point"); got != "core.subtree-walk" {
		t.Fatalf("event attr lost: point=%q", got)
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := New()
	sp := tr.StartSpan("evaluate", String("strategy", "direct-hop"))
	sp.End()
	tr.Event("mark")
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TS    float64           `json:"ts"`
			PID   int               `json:"pid"`
			TID   int64             `json:"tid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(out.TraceEvents))
	}
	if out.TraceEvents[0].Phase != "X" || out.TraceEvents[1].Phase != "i" {
		t.Fatalf("phases %q/%q, want X/i", out.TraceEvents[0].Phase, out.TraceEvents[1].Phase)
	}
	if out.TraceEvents[0].Args["strategy"] != "direct-hop" {
		t.Fatalf("span args lost: %v", out.TraceEvents[0].Args)
	}
}

func TestEventLimitDrops(t *testing.T) {
	tr := New(WithEventLimit(3))
	for i := 0; i < 10; i++ {
		tr.Event("e")
	}
	if got := len(tr.Events()); got != 3 {
		t.Fatalf("buffered %d events, want 3", got)
	}
	if got := tr.Dropped(); got != 7 {
		t.Fatalf("dropped %d, want 7", got)
	}
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset did not clear the buffer")
	}
}

func TestLoggerSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(WithLogger(slog.New(slog.NewTextHandler(&buf, nil))))
	sp := tr.StartSpan("watcher.slide", Int("attempt", 1))
	sp.End()
	out := buf.String()
	if !strings.Contains(out, "watcher.slide") || !strings.Contains(out, "attempt=1") || !strings.Contains(out, "dur=") {
		t.Fatalf("slog output missing span fields: %q", out)
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				sp := tr.StartSpan("hop", Int("j", j))
				sp.StartChild("engine.run").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Events()); got != 8*200*2 {
		t.Fatalf("got %d events, want %d", got, 8*200*2)
	}
}

func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("cg_test_total", "a counter.", "strategy", "work-sharing").Add(3)
	r.Counter("cg_test_total", "a counter.", "strategy", "direct-hop").Inc()
	r.Gauge("cg_test_busy", "a gauge.").Set(-2)
	h := r.Histogram("cg_test_seconds", "a histogram.", []float64{0.001, 0.1})
	h.Observe(500 * time.Microsecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(2 * time.Second)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE cg_test_total counter",
		`cg_test_total{strategy="work-sharing"} 3`,
		`cg_test_total{strategy="direct-hop"} 1`,
		"# TYPE cg_test_busy gauge",
		"cg_test_busy -2",
		"# TYPE cg_test_seconds histogram",
		`cg_test_seconds_bucket{le="0.001"} 1`,
		`cg_test_seconds_bucket{le="0.1"} 2`,
		`cg_test_seconds_bucket{le="+Inf"} 3`,
		"cg_test_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if _, err := ParseExposition(buf.Bytes()); err != nil {
		t.Fatalf("own exposition fails validation: %v", err)
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("cg_json_total", "c.", "strategy", "kickstarter").Add(7)
	r.Gauge("cg_json_busy", "g.").Set(4)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if out["cg_json_busy"] != float64(4) {
		t.Fatalf("unlabeled gauge = %v, want 4", out["cg_json_busy"])
	}
	labeled, ok := out["cg_json_total"].(map[string]any)
	if !ok || labeled[`strategy="kickstarter"`] != float64(7) {
		t.Fatalf("labeled counter = %v", out["cg_json_total"])
	}
}

// TestValidateExpositionRejectsGarbage feeds ParseExposition text that is
// not a valid exposition outside of histogram rules: each must be refused.
func TestValidateExpositionRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"orphan sample":    "no_type_declared 3\n",
		"malformed sample": "# TYPE x counter\nx{unclosed 3\n",
		"bad type":         "# TYPE x matrix\n",
		"empty family":     "# TYPE x counter\n",
		"duplicate # TYPE": "# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition([]byte(text)); err == nil {
			t.Errorf("%s accepted: %q", name, text)
		}
	}
}

func TestDefaultInstrumentsAreCached(t *testing.T) {
	a := Queries("work-sharing")
	b := Queries("work-sharing")
	if a != b {
		t.Fatal("instrument accessor returned distinct handles for the same labels")
	}
	if Queries("direct-hop") == a {
		t.Fatal("distinct labels share a handle")
	}
	before := a.Value()
	a.Inc()
	if b.Value() != before+1 {
		t.Fatal("handles do not share state")
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewRegistry().Histogram("h_seconds", "h.", nil)
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
	if got := h.Sum(); got != time.Second+time.Millisecond {
		t.Fatalf("sum %v", got)
	}
}
