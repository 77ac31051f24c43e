package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds metric families. Registration (Counter/Gauge/Histogram)
// takes a lock and caches the instrument; updates on the returned handles
// are single atomic operations, so call sites resolve handles once per
// query (or once per process, instruments.go) and update lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order, for stable exposition
}

type family struct {
	name, help, typ string
	mu              sync.Mutex
	metrics         map[string]any // label-set key → *Counter/*Gauge/*Histogram
	keys            []string       // registration order
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry the canonical pipeline instruments
// (instruments.go) register on; Watcher.ServeMetrics and the cmd/ tools
// expose it.
func Default() *Registry { return defaultRegistry }

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, metrics: make(map[string]any)}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	return f
}

// labelKey serializes a label pair list ("k1", "v1", "k2", "v2", ...)
// into the family's metric key and its rendered {k="v"} form.
func labelKey(labelPairs []string) string {
	if len(labelPairs) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labelPairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labelPairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labelPairs[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a gauge holding a float64 — runtime/metrics samples
// (pause seconds, heap fractions) that don't fit an integer gauge.
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefDurationBuckets are the default histogram bounds for latencies, in
// seconds: decades from a microsecond to ten seconds, the range a
// schedule edge or hop plausibly spans.
var DefDurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Histogram counts observations into cumulative-on-exposition buckets.
// Observations are durations; bounds are seconds.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus the +Inf overflow at the end
	sumNs  atomic.Int64
	count  atomic.Int64
}

// Observe records one duration. Lock-free: a binary search over the
// (small) bound slice and two atomic adds.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Counter returns (registering on first use) the counter of the named
// family with the given label pairs ("k1", "v1", "k2", "v2", ...).
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	f := r.family(name, help, "counter")
	return getOrCreate(f, labelPairs, func() *Counter { return &Counter{} })
}

// Gauge returns (registering on first use) the gauge of the named family.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	f := r.family(name, help, "gauge")
	return getOrCreate(f, labelPairs, func() *Gauge { return &Gauge{} })
}

// FloatGauge returns (registering on first use) the float gauge of the
// named family.
func (r *Registry) FloatGauge(name, help string, labelPairs ...string) *FloatGauge {
	f := r.family(name, help, "gauge")
	return getOrCreate(f, labelPairs, func() *FloatGauge { return &FloatGauge{} })
}

// Histogram returns (registering on first use) the histogram of the named
// family. bounds are upper bounds in seconds, ascending; nil means
// DefDurationBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	f := r.family(name, help, "histogram")
	return getOrCreate(f, labelPairs, func() *Histogram {
		if bounds == nil {
			bounds = DefDurationBuckets
		}
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	})
}

func getOrCreate[M any](f *family, labelPairs []string, mk func() M) M {
	key := labelKey(labelPairs)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.metrics[key]; ok {
		if typed, ok := m.(M); ok {
			return typed
		}
		// Same family name registered under two types: a programming
		// error; return a detached instrument rather than corrupting the
		// exposition.
		return mk()
	}
	m := mk()
	f.metrics[key] = m
	f.keys = append(f.keys, key)
	return m
}

// snapshot returns families and their keys in registration order.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, r.families[n])
	}
	return out
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP/# TYPE per family, one sample line per
// metric, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshot() {
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		metrics := make([]any, len(keys))
		for i, k := range keys {
			metrics[i] = f.metrics[k]
		}
		f.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for i, k := range keys {
			if err := writePromMetric(w, f.name, k, metrics[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromMetric(w io.Writer, name, labels string, m any) error {
	wrap := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	switch v := m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, wrap(""), v.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, wrap(""), v.Value())
		return err
	case *FloatGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, wrap(""), formatFloat(v.Value()))
		return err
	case *Histogram:
		var cum int64
		for i, b := range v.bounds {
			cum += v.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, wrap(`le="`+formatFloat(b)+`"`), cum); err != nil {
				return err
			}
		}
		cum += v.counts[len(v.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, wrap(`le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, wrap(""), formatFloat(v.Sum().Seconds())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, wrap(""), cum)
		return err
	}
	return fmt.Errorf("obs: unknown metric type %T", m)
}

// WriteJSON renders the registry as an expvar-style JSON object: family
// name → value for unlabeled scalars, family name → {labelKey: value}
// for labeled ones, histograms as {count, sum_seconds, buckets}.
func (r *Registry) WriteJSON(w io.Writer) error {
	top := make(map[string]any)
	for _, f := range r.snapshot() {
		f.mu.Lock()
		vals := make(map[string]any, len(f.keys))
		for _, k := range f.keys {
			vals[k] = jsonMetric(f.metrics[k])
		}
		f.mu.Unlock()
		if len(vals) == 1 {
			if v, ok := vals[""]; ok {
				top[f.name] = v
				continue
			}
		}
		top[f.name] = vals
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(top)
}

func jsonMetric(m any) any {
	switch v := m.(type) {
	case *Counter:
		return v.Value()
	case *Gauge:
		return v.Value()
	case *FloatGauge:
		return v.Value()
	case *Histogram:
		buckets := make(map[string]int64, len(v.bounds)+1)
		var cum int64
		for i, b := range v.bounds {
			cum += v.counts[i].Load()
			buckets[formatFloat(b)] = cum
		}
		cum += v.counts[len(v.bounds)].Load()
		buckets["+Inf"] = cum
		return map[string]any{"count": cum, "sum_seconds": v.Sum().Seconds(), "buckets": buckets}
	}
	return nil
}
