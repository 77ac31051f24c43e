package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the index of the enclosing span, -1 for an op's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	// Source is empty for an interval the benchmark timed in place,
	// "replayed" for a call timed on its own outside the op's clock and
	// placed inside the span that makes it, "reported" for a duration
	// taken from the program's public Result, and "computed" for one
	// derived from a count and a unit cost.
	Source string `json:"source,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced pass runs the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// during times fn as a span.
func (r *recorder) during(name string, parent, op int, fn func()) {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
}

// child places a duration that was not timed in place inside parent,
// after the children parent already has, and marks where it came from.
func (r *recorder) child(name string, parent int, d time.Duration, source string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent]
	start := p.Start
	for _, s := range r.spans[parent+1:] {
		if s.Parent == parent && s.End > start {
			start = s.End
		}
	}
	r.spans = append(r.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Op: p.Op, Source: source})
}

// layerTimes folds the spans into per-op totals: inclusive[name][op] is
// the time inside spans of that name, self[name][op] the same minus the
// time their child spans cover.
func (r *recorder) layerTimes() (inclusive, self map[string]map[int]time.Duration) {
	inclusive = map[string]map[int]time.Duration{}
	self = map[string]map[int]time.Duration{}
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	add := func(m map[string]map[int]time.Duration, name string, op int, d int64) {
		if m[name] == nil {
			m[name] = map[int]time.Duration{}
		}
		m[name][op] += time.Duration(d)
	}
	for i, s := range r.spans {
		add(inclusive, s.Name, s.Op, s.End-s.Start)
		add(self, s.Name, s.Op, s.End-s.Start-covered[i])
	}
	return inclusive, self
}

// medianMS is the median over ops of a layer's per-op total.
func medianMS(perOp map[int]time.Duration) float64 {
	xs := make([]float64, 0, len(perOp))
	for _, d := range perOp {
		xs = append(xs, ms(d))
	}
	return quantile(xs, 0.5)
}

// unattributedMS is opP50 minus the layers' median self times, the root
// "op" span's own self time excluded: what the layer spans do not explain.
func unattributedMS(opP50 float64, self map[string]map[int]time.Duration) float64 {
	names := make([]string, 0, len(self))
	for name := range self {
		if name != "op" {
			names = append(names, name)
		}
	}
	sort.Strings(names) // fixed summation order
	for _, name := range names {
		opP50 -= medianMS(self[name])
	}
	return opP50
}

// write stores the spans as one JSON document.
func (r *recorder) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
