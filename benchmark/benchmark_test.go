package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

type catalogueMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type catalogue struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []catalogueMetric `json:"end_to_end"`
	PerLayer []catalogueMetric `json:"per_layer"`
}

func readCatalogue(t *testing.T) catalogue {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c catalogue
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCatalogue runs every workload's two phases at smoke scale and holds
// the output to BENCHMARK.json: every workload and metric named there is
// emitted exactly once with its unit and a finite value, nothing is
// emitted unnamed, and nothing fails. It also checks the input claim on a
// second seed: the seed changes every fingerprint and no op count.
func TestCatalogue(t *testing.T) {
	cat := readCatalogue(t)
	if len(cat.Paths) != 1 || cat.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", cat.Paths)
	}
	var named []string
	for _, w := range cat.Workloads {
		named = append(named, w.Name)
	}
	if got := strings.Join(workloadNames(), ","); got != strings.Join(named, ",") {
		t.Fatalf("workloads: program runs %s, BENCHMARK.json names %s", got, strings.Join(named, ","))
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{seed: 1, seconds: 12, scale: 0.02, workDir: t.TempDir()}
			timed := runPhase(t, w, cfg, cat.EndToEnd, true)
			cfg.traced = true
			traced := runPhase(t, w, cfg, cat.PerLayer, false)
			if _, err := os.Stat(traced.spanFile); err != nil {
				t.Errorf("traced phase wrote no span file: %v", err)
			}

			cfg = runConfig{seed: 2, seconds: 12, scale: 0.02}
			in, err := w.generate(cfg, timed.ops, timed.ops)
			if err != nil {
				t.Fatal(err)
			}
			for i, fp := range in.fingerprints(timed.ops) {
				if fp == timed.fingerprints[i] {
					t.Errorf("seed 2 left fingerprint %s unchanged", fp)
				}
			}
			if blocks, blockOps := cfg.timedBlocks(w); blocks*blockOps != timed.ops {
				t.Errorf("seed 2 changed the op count: %d, was %d", blocks*blockOps, timed.ops)
			}
		})
	}
}

// runPhase runs one phase and compares its result line with the
// catalogue's list for that phase.
func runPhase(t *testing.T, w workload, cfg runConfig, want []catalogueMetric, nonZero bool) *report {
	t.Helper()
	rep, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Errorf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.failures)
	}
	emitted := map[string]metric{}
	for _, m := range rep.metrics {
		if _, dup := emitted[m.Name]; dup {
			t.Errorf("metric %s emitted twice", m.Name)
		}
		emitted[m.Name] = m
	}
	for _, c := range want {
		m, ok := emitted[c.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is in BENCHMARK.json but was not emitted", c.Name)
		case m.Unit != c.Unit || m.Unit == "":
			t.Errorf("metric %s emitted with unit %q, BENCHMARK.json says %q", c.Name, m.Unit, c.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", c.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", c.Name, m.Value)
		}
		delete(emitted, c.Name)
	}
	// The timed phase also prints, beside the result line, the two
	// end-to-end metrics ISSUE 11 names that the result line cannot carry.
	if nonZero {
		for _, name := range []string{"op_p90_ms", "failed_share"} {
			m, ok := emitted[name]
			if !ok || !m.TextOnly || m.Unit == "" || (name == "failed_share") != (m.Value == 0) {
				t.Errorf("timed phase: %s = %+v (printed: %t), want it off the result line, failed_share 0 and op_p90_ms not", name, m, ok)
			}
			delete(emitted, name)
		}
	}
	for name := range emitted {
		t.Errorf("metric %s emitted but not named in BENCHMARK.json", name)
	}

	var out bytes.Buffer
	rep.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line keys: %s", lines[len(lines)-1])
	}
	var onLine map[string]json.RawMessage
	if err := json.Unmarshal(line["metrics"], &onLine); err != nil || len(onLine) != len(want) {
		t.Errorf("result line carries %d metrics, BENCHMARK.json lists %d for this phase (%v)", len(onLine), len(want), err)
	}
	if !strings.HasPrefix(lines[0], "host nproc=") || !strings.Contains(lines[1], "edges=") || !strings.Contains(lines[1], "requests=") {
		t.Errorf("report does not open with the host stamp and the input fingerprints:\n%s\n%s", lines[0], lines[1])
	}
	return rep
}

// TestLayerSelfTime pins the span arithmetic the layer metrics rest on.
func TestLayerSelfTime(t *testing.T) {
	rec := newRecorder()
	rec.spans = []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "core.execute", Start: 10, End: 90, Parent: 0, Op: 0},
		{Name: "engine.solve", Start: 10, End: 40, Parent: 1, Op: 0},
	}
	rec.child("engine.clone", 1, 20, "reported")
	if got := rec.spans[3]; got.Start != 40 || got.End != 60 || got.Op != 0 {
		t.Errorf("reported child placed at [%d,%d] op %d, want [40,60] op 0", got.Start, got.End, got.Op)
	}
	inclusive, self := rec.layerTimes()
	if inclusive["core.execute"][0] != 80 || self["core.execute"][0] != 30 || self["op"][0] != 20 {
		t.Errorf("execute inclusive %d self %d, op self %d; want 80, 30, 20",
			inclusive["core.execute"][0], self["core.execute"][0], self["op"][0])
	}
	// 100 ns op, layers explain 30+30+20 ns of self time.
	if got := unattributedMS(100e-6, self); math.Abs(got-20e-6) > 1e-12 {
		t.Errorf("unattributed = %v ms, want 20e-6", got)
	}
}
