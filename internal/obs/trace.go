package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultEventLimit bounds a tracer's in-memory event buffer; past it new
// events are counted in Dropped instead of growing without bound in a
// long-running service.
const DefaultEventLimit = 1 << 20

// Event is one recorded trace entry: a completed span (Dur > 0 or a span
// that ended instantly) or an instant event (Instant true). Track is the
// lane the event renders on in the Chrome trace view — concurrent
// subtrees get distinct tracks, sequential children inherit their
// parent's. Trace/ID/Parent are the span's wire identity (zero for
// instant events and for spans recorded before identity existed).
type Event struct {
	Name    string
	Track   int64
	Start   time.Time
	Dur     time.Duration
	Instant bool
	Trace   TraceID
	ID      SpanID
	Parent  SpanID
	Attrs   []Attr
}

// Attr returns the value of the named attribute, or "" when absent.
func (e Event) Attr(key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// approxBytes estimates the event's resident size, the unit of the
// flight recorder's byte budget.
func (e Event) approxBytes() int {
	n := 64 + len(e.Name)
	for _, a := range e.Attrs {
		n += 32 + len(a.Key) + len(a.Value)
	}
	return n
}

// Tracer records spans and events. A nil *Tracer is the disabled tracer:
// every method is a no-op and StartSpan returns a nil *Span whose methods
// are no-ops too, so call sites never test for enablement.
//
// A tracer built with WithRingOnly buffers nothing itself: completed
// root-span trees go only to the flight recorder's bounded ring. That is
// the always-on mode Recorder() provides as the pipeline's default sink.
type Tracer struct {
	logger    *slog.Logger
	limit     int
	epoch     time.Time
	ids       *IDSource
	flight    *FlightRecorder
	flightSet bool // WithFlightRecorder was given (possibly nil): skip the process default
	ringOnly  bool
	nextTrack atomic.Int64
	dropped   atomic.Int64
	// gapPending counts events dropped since the last successful record;
	// the next event that fits materializes it as a synthetic
	// "trace.dropped" instant so exported traces show the gap instead of
	// silently eliding it.
	gapPending atomic.Int64

	mu     sync.Mutex
	events []Event
}

// TracerOption configures New.
type TracerOption func(*Tracer)

// WithLogger streams every span end and instant event to l as structured
// slog records, in addition to buffering them.
func WithLogger(l *slog.Logger) TracerOption { return func(t *Tracer) { t.logger = l } }

// WithEventLimit overrides DefaultEventLimit.
func WithEventLimit(n int) TracerOption { return func(t *Tracer) { t.limit = n } }

// WithIDSource injects the span/trace ID stream — tests pass a seeded
// NewIDSource for deterministic identities.
func WithIDSource(s *IDSource) TracerOption { return func(t *Tracer) { t.ids = s } }

// WithFlightRecorder overrides the ring completed root spans are handed
// to (default: the process recorder, Flight()). Pass nil to detach the
// tracer from flight recording entirely.
func WithFlightRecorder(f *FlightRecorder) TracerOption {
	return func(t *Tracer) { t.flight = f; t.flightSet = true }
}

// WithRingOnly makes the tracer buffer nothing in its own event slice:
// spans exist only long enough to reach the flight recorder. This is the
// always-on configuration — per-trace memory is bounded by the ring's
// byte budget, never by query volume.
func WithRingOnly() TracerOption { return func(t *Tracer) { t.ringOnly = true } }

// New creates an enabled tracer.
func New(opts ...TracerOption) *Tracer {
	t := &Tracer{limit: DefaultEventLimit, epoch: time.Now()}
	for _, o := range opts {
		o(t)
	}
	if t.ids == nil {
		t.ids = NewIDSource(uint64(time.Now().UnixNano()))
	}
	if !t.flightSet {
		t.flight = Flight()
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Detailed reports whether the tracer buffers full event streams (an
// explicit or COMMONGRAPH_TRACE tracer) as opposed to the ring-only
// flight configuration. Expensive extras — per-query ReadMemStats deltas,
// allocation attribution — are gated on it so the always-on recorder
// never pays them.
func (t *Tracer) Detailed() bool { return t != nil && !t.ringOnly }

// traceRec accumulates one root span's completed subtree for the flight
// recorder. Children share their root's rec; the per-trace byte cap keeps
// one enormous trace from evicting the whole ring.
type traceRec struct {
	mu        sync.Mutex
	events    []Event
	bytes     int
	truncated int
}

// recMaxBytes caps one trace's resident size inside the flight ring.
const recMaxBytes = 256 << 10

func (r *traceRec) add(e Event) {
	if r == nil {
		return
	}
	n := e.approxBytes()
	r.mu.Lock()
	if r.bytes+n > recMaxBytes {
		r.truncated++
	} else {
		r.events = append(r.events, e)
		r.bytes += n
	}
	r.mu.Unlock()
}

// Span is an in-flight traced region. The zero of the API is nil: a nil
// *Span ignores SetAttr/End and returns nil children, which is the whole
// disabled fast path — one pointer test per call. Attributes handed to a
// Start* call are kept by the span, so their slice is heap-allocated even
// when the receiver is nil; a site that must not allocate while disabled
// passes them to SetAttr, which copies them.
type Span struct {
	t      *Tracer
	name   string
	track  int64
	start  time.Time
	trace  TraceID
	id     SpanID
	parent SpanID
	isRoot bool // local root: completes a flight record on End
	rec    *traceRec
	attrs  []Attr
}

// StartSpan opens a root span on a fresh track. Use it for regions that
// run concurrently with their siblings (subtrees, parallel hops); use
// StartChild for sequential nesting.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.newRoot(name, t.ids.TraceID(), 0, attrs)
}

// StartRemote opens a local root span that joins the trace identified by
// sc — the cross-process link: a follower's replay span is a remote child
// of the primary's ingest span, a read span a remote child of the last
// replayed one. An invalid sc starts a fresh trace, so call sites never
// branch on propagation.
func (t *Tracer) StartRemote(sc SpanContext, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		return t.newRoot(name, t.ids.TraceID(), 0, attrs)
	}
	return t.newRoot(name, sc.Trace, sc.Span, attrs)
}

func (t *Tracer) newRoot(name string, trace TraceID, parent SpanID, attrs []Attr) *Span {
	s := &Span{
		t: t, name: name, track: t.nextTrack.Add(1), start: time.Now(),
		trace: trace, id: t.ids.SpanID(), parent: parent, isRoot: true,
		attrs: attrs,
	}
	if t.flight != nil && flightEnabled() {
		s.rec = &traceRec{}
	}
	return s
}

// StartChild opens a sequential child span on the parent's track.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, name: name, track: s.track, start: time.Now(),
		trace: s.trace, id: s.t.ids.SpanID(), parent: s.id, rec: s.rec, attrs: attrs}
}

// Fork opens a concurrent child span on a fresh track (a goroutine spawned
// under this span). The fork stays inside the parent's trace — same
// TraceID, parent set — it only renders on its own lane.
func (s *Span) Fork(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, name: name, track: s.t.nextTrack.Add(1), start: time.Now(),
		trace: s.trace, id: s.t.ids.SpanID(), parent: s.id, rec: s.rec, attrs: attrs}
}

// Tracer returns the span's tracer (nil for a nil span), for handing the
// tracer itself further down a call chain.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.t
}

// Context returns the span's portable identity — what crosses process
// boundaries in frame headers and context.Context values. Zero for a nil
// span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.id}
}

// TraceID returns the span's trace identity (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// SetAttr appends attributes to the span (visible once it ends).
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End completes the span and records it. A root span's End also hands the
// trace's completed subtree to the flight recorder.
func (s *Span) End() {
	if s == nil {
		return
	}
	e := Event{
		Name:   s.name,
		Track:  s.track,
		Start:  s.start,
		Dur:    time.Since(s.start),
		Trace:  s.trace,
		ID:     s.id,
		Parent: s.parent,
		Attrs:  s.attrs,
	}
	s.t.record(e)
	s.rec.add(e)
	if s.isRoot && s.rec != nil && s.t.flight != nil {
		s.t.flight.add(s.rec, s.trace, e)
	}
}

// Event records an instant event (a point in time, not a region).
func (t *Tracer) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.record(Event{Name: name, Start: time.Now(), Instant: true, Attrs: attrs})
}

func (t *Tracer) record(e Event) {
	if !t.ringOnly {
		t.mu.Lock()
		// Peek before swapping: if the buffer is still full the pending
		// count must keep accumulating, not reset.
		if t.gapPending.Load() > 0 && len(t.events) < t.limit {
			gap := t.gapPending.Swap(0)
			// Materialize the gap left by dropped events, so an exported
			// trace shows where (and how much) history is missing.
			t.events = append(t.events, Event{
				Name: "trace.dropped", Start: e.Start, Instant: true,
				Trace: e.Trace,
				Attrs: []Attr{Int64("dropped_events", gap)},
			})
		}
		if len(t.events) < t.limit {
			t.events = append(t.events, e)
			t.mu.Unlock()
		} else {
			t.mu.Unlock()
			t.dropped.Add(1)
			t.gapPending.Add(1)
			TraceDropped().Inc()
		}
	}
	if t.logger != nil {
		logAttrs := make([]slog.Attr, 0, len(e.Attrs)+1)
		if !e.Instant {
			logAttrs = append(logAttrs, slog.Duration("dur", e.Dur))
		}
		for _, a := range e.Attrs {
			logAttrs = append(logAttrs, slog.String(a.Key, a.Value))
		}
		// slog wants a context only for handler plumbing; trace emission has
		// no request context and must never block on one.
		t.logger.LogAttrs(context.Background(), slog.LevelInfo, e.Name, logAttrs...)
	}
}

// Events returns a snapshot of the recorded events, in recording order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Dropped reports how many events the buffer limit discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Reset discards every buffered event (tests, or re-use between queries).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = nil
	t.mu.Unlock()
	t.dropped.Store(0)
	t.gapPending.Store(0)
}

// chromeEvent is one entry of the Chrome trace_event format, the
// "JSON Array Format" every trace viewer (chrome://tracing, Perfetto,
// speedscope) loads.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"` // microseconds from trace epoch
	Dur   float64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int64             `json:"tid"`
	Scope string            `json:"s,omitempty"` // instant-event scope
	Args  map[string]string `json:"args,omitempty"`
}

func chromeFromEvent(e Event, pid int, epoch time.Time) chromeEvent {
	ce := chromeEvent{
		Name:  e.Name,
		Cat:   "commongraph",
		Phase: "X",
		TS:    float64(e.Start.Sub(epoch)) / float64(time.Microsecond),
		Dur:   float64(e.Dur) / float64(time.Microsecond),
		PID:   pid,
		TID:   e.Track,
	}
	if e.Instant {
		ce.Phase = "i"
		ce.Scope = "t"
		ce.Dur = 0
	}
	if len(e.Attrs) > 0 || e.Trace != 0 {
		ce.Args = make(map[string]string, len(e.Attrs)+3)
		for _, a := range e.Attrs {
			ce.Args[a.Key] = a.Value
		}
		if e.Trace != 0 {
			ce.Args["trace_id"] = e.Trace.String()
			ce.Args["span_id"] = e.ID.String()
			if e.Parent != 0 {
				ce.Args["parent_id"] = e.Parent.String()
			}
		}
	}
	return ce
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the buffered events as Chrome trace_event JSON
// ({"traceEvents": [...]}): spans become complete ("X") events, instants
// become thread-scoped instant ("i") events. Span identity rides in the
// args (trace_id, span_id, parent_id).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	t.mu.Lock()
	events := make([]Event, len(t.events))
	copy(events, t.events)
	epoch := t.epoch
	t.mu.Unlock()

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(events))}
	for _, e := range events {
		out.TraceEvents = append(out.TraceEvents, chromeFromEvent(e, 1, epoch))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// TraceProcess names one tracer inside a stitched multi-process export.
type TraceProcess struct {
	Name   string
	Tracer *Tracer
}

// WriteStitchedChromeTrace merges several tracers — typically a primary's
// and a follower's — into one Chrome trace timeline: each tracer becomes
// a distinct pid with a process_name metadata record, and all timestamps
// share one epoch (the earliest tracer's), so spans that share a TraceID
// across the replication wire line up on a single wall-clock axis.
func WriteStitchedChromeTrace(w io.Writer, procs ...TraceProcess) error {
	var epoch time.Time
	for _, p := range procs {
		if p.Tracer == nil {
			continue
		}
		if epoch.IsZero() || p.Tracer.epoch.Before(epoch) {
			epoch = p.Tracer.epoch
		}
	}
	out := chromeTrace{DisplayTimeUnit: "ms"}
	for i, p := range procs {
		pid := i + 1
		if p.Tracer == nil {
			// Absent process (e.g. a follower that never started): no empty
			// row in the viewer.
			continue
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]string{"name": p.Name},
		})
		for _, e := range p.Tracer.Events() {
			out.TraceEvents = append(out.TraceEvents, chromeFromEvent(e, pid, epoch))
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// EnvVar is the environment variable that arms the process-wide tracer.
//
//	COMMONGRAPH_TRACE=log          stream spans to stderr as slog text
//	COMMONGRAPH_TRACE=<path.json>  buffer spans; commands write the Chrome
//	                               trace there on exit (WriteEnvTrace)
const EnvVar = "COMMONGRAPH_TRACE"

var (
	envOnce   sync.Once
	envTracer *Tracer
	envPath   string
)

// Env returns the process-wide tracer configured by COMMONGRAPH_TRACE, or
// nil (the disabled tracer) when the variable is unset. It is the default
// every pipeline entry point falls back to when no explicit tracer is
// passed, so `COMMONGRAPH_TRACE=log go test ...` or a traced cgquery run
// needs no code changes.
func Env() *Tracer {
	envOnce.Do(func() {
		v := os.Getenv(EnvVar)
		switch v {
		case "":
			return
		case "log", "1", "stderr":
			envTracer = New(WithLogger(slog.New(slog.NewTextHandler(os.Stderr, nil))))
		default:
			envPath = v
			envTracer = New()
		}
	})
	return envTracer
}

// Active resolves the process's ambient tracer: the COMMONGRAPH_TRACE
// tracer when armed, else the always-on ring-only flight recorder tracer
// (nil only when flight recording is globally disabled). Instrumentation
// sites with no explicit tracer — watcher maintenance, ingest windows,
// replication sessions — use it so their root spans land in the flight
// ring by default.
func Active() *Tracer {
	if t := Env(); t != nil {
		return t
	}
	return Recorder()
}

// WriteEnvTrace writes the env tracer's buffer to the path given in
// COMMONGRAPH_TRACE, when the variable named a file. Commands defer it;
// it is a no-op in the "log" and unset configurations.
func WriteEnvTrace() error {
	t := Env()
	if t == nil || envPath == "" {
		return nil
	}
	f, err := os.Create(envPath)
	if err != nil {
		return fmt.Errorf("obs: writing %s trace: %w", EnvVar, err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
