package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one emitted number. Names and units must match
// BENCHMARK.json; benchmark_test.go holds the two together.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Note marks how a per-layer number was obtained when it is not a
	// span the benchmark timed itself: "reported" by the program's public
	// Result, or "computed" from counts. Printed, not part of the result
	// line.
	Note string
	// TextOnly keeps a metric off the result line: it is printed by name
	// and unit like the others.
	TextOnly bool
}

// perLayer is the per-layer catalogue in emission order. A workload that
// never enters a layer reports 0 for it: the layer did no work there.
var perLayer = []struct{ name, unit string }{
	{"gen.generate_s", "s"},
	{"graph.pair_build_ms", "ms"},
	{"snapshot.get_version_ms", "ms"},
	{"core.build_rep_ms", "ms"},
	{"core.build_tg_ms", "ms"},
	{"core.steiner_ms", "ms"},
	{"core.labels_ms", "ms"},
	{"core.execute_ms", "ms"},
	{"core.additions_per_op", "count"},
	{"core.checksum_ms", "ms"},
	{"core.slide_ms", "ms"},
	{"delta.overlay_build_ms", "ms"},
	{"delta.overlay_builds_per_op", "count"},
	{"delta.overlay_edges_per_op", "count"},
	{"engine.solve_ms", "ms"},
	{"engine.incr_add_ms", "ms"},
	{"engine.clone_ms", "ms"},
	{"engine.clone_mb_per_op", "MB"},
	{"engine.edges_per_op", "count"},
	{"kickstarter.op_ms", "ms"},
	{"kickstarter.speedup", "ratio"},
	{"store.persist_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.open_mmap_ms", "ms"},
	{"store.commit_ms", "ms"},
	{"store.commit_p90_ms", "ms"},
	{"store.segment_bytes_per_op", "bytes"},
	{"store.compactions", "count"},
	{"store.disk_bytes_per_edge", "bytes"},
	{"serve.hit_ms", "ms"},
	{"serve.miss_ms", "ms"},
	{"serve.hit_share", "ratio"},
	{"serve.icg_solves", "count"},
	{"serve.icg_reused", "count"},
	{"serve.rejected", "count"},
	{"serve.request_ms", "ms"},
	{"apiv1.keep_values_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"failed_share", "ratio"},
}

// report is what one workload run prints.
type report struct {
	workload     string
	cfg          runConfig
	fingerprints []string // "edges=<fnv>" "requests=<fnv>"
	ops          int      // ops of the phase that ran, for the input line
	attempted    int
	failed       int
	failures     []string // first few failure descriptions
	metrics      []metric
	notes        []string // stated bases of ratios, sample counts
	spanFile     string   // where the traced phase wrote its spans
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v})
}

// layer records a per-layer metric; fillLayers emits the catalogue.
func (r *report) layer(name string, v float64, note string) {
	for _, l := range perLayer {
		if l.name == name {
			r.metrics = append(r.metrics, metric{Name: name, Unit: l.unit, Value: v, Note: note})
			return
		}
	}
	panic("benchmark: layer metric " + name + " is not in the per-layer catalogue")
}

// fillLayers orders the layer metrics as the catalogue lists them and
// reports 0 for every layer this workload did not enter.
func (r *report) fillLayers() {
	have := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		have[m.Name] = m
	}
	r.metrics = r.metrics[:0]
	for _, l := range perLayer {
		m, ok := have[l.name]
		if !ok {
			m = metric{Name: l.name, Unit: l.unit}
		}
		r.metrics = append(r.metrics, m)
	}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the host stamp, the input fingerprints, every metric by
// name and unit, and last the contract's result line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d go=%s kernel=%s seed=%d seconds=%d scale=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), r.cfg.seed, r.cfg.seconds, r.cfg.scale)
	fmt.Fprintf(w, "input %s %s ops=%d\n", r.workload, strings.Join(r.fingerprints, " "), r.ops)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s %s\n", r.workload, n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s %s\n", r.workload, f)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]wire{}}
	for _, m := range r.metrics {
		note := ""
		if m.Note != "" {
			note = " (" + m.Note + ")"
		}
		fmt.Fprintf(w, "metric %-10s %-28s %s %s%s\n", r.workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, note)
		if !m.TextOnly {
			out.Metrics[m.Name] = wire{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func rssPeakMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
