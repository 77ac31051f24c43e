package serveexp

import (
	"strings"
	"testing"

	"commongraph/internal/bench"
)

// TestServeExperimentTiny runs the whole experiment at the miniature
// scale: it must produce the 6 concurrency x sharing rows, the speedup
// note, and a fully-hit replayed cache batch. No timing thresholds here:
// the experiment's own speedup note reports the wall clock, CI does not
// gate on it.
func TestServeExperimentTiny(t *testing.T) {
	tab, err := Serve(bench.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("got %d rows, want 6 (3 concurrency levels x sharing on/off)", len(tab.Rows))
	}
	var sawSpeedup, sawCache bool
	for _, n := range tab.Notes {
		if strings.Contains(n, "aggregate throughput with sharing") {
			sawSpeedup = true
		}
		if strings.Contains(n, "8/8 hits") {
			sawCache = true
		}
	}
	if !sawSpeedup {
		t.Errorf("speedup note missing: %v", tab.Notes)
	}
	if !sawCache {
		t.Errorf("replayed batch was not fully cache-hit: %v", tab.Notes)
	}
	if _, ok := bench.ByName("serve"); !ok {
		t.Error("serve experiment not registered")
	}
}
