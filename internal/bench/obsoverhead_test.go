package bench

import (
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/engine"
	"commongraph/internal/kickstarter"
	"commongraph/internal/obs"
)

// obsTracingAllocs is what recording one transition allocates for tracing:
// seven spans, the attribute slices of the three that carry attributes
// (the engine pass's grows once), the trace's subtree buffer and its
// growth, and the flight record. A new span or attribute on the loop moves
// it; a change there states the new count.
const obsTracingAllocs = 17

// TestObsOverheadLoop is the deterministic half of the obs-overhead gate:
// the loop it times records nothing and allocates nothing for tracing with
// the recorder off, and records a fixed span tree at a pinned allocation
// cost with it on. The wall-clock ratio runs at default scale
// (make obs-overhead), where it is signal.
func TestObsOverheadLoop(t *testing.T) {
	if obs.Env() != nil {
		t.Skip("COMMONGRAPH_TRACE arms a tracer the recorder switch does not turn off")
	}
	p := Tiny()
	w, err := obsWorkload("LJ-sim", p)
	if err != nil {
		t.Fatal(err)
	}
	sys := kickstarter.New(w.N, w.Base, algo.BFS{}, p.src(), engine.Options{})
	prev := obs.SetFlightRecording(false)
	defer obs.SetFlightRecording(prev)

	newest := func() *obs.FlightRecord {
		recs := obs.Flight().Records()
		if len(recs) == 0 {
			return nil
		}
		return recs[len(recs)-1]
	}
	before := newest()
	for tr := 0; tr < 3; tr++ {
		trace, err := obsTransition(obs.Active(), sys, tr, w.Store.Additions(tr).Edges(), w.Store.Deletions(tr).Edges())
		if err != nil {
			t.Fatal(err)
		}
		if trace != 0 || newest() != before {
			t.Fatalf("transition %d with recording off reached the flight ring (trace %v)", tr, trace)
		}
	}

	spans, err := spansPerTransition(w, p)
	if err != nil {
		t.Fatal(err)
	}
	// evaluate, kickstarter.transition, its four phases, and the engine
	// pass under phase.incremental-add.
	if spans != 7 {
		t.Fatalf("spans per transition = %d, want 7", spans)
	}

	// An empty transition runs every span site of the loop while the work
	// allocates only IncrementalDelete's scratch, so the rest is tracing.
	work := testing.AllocsPerRun(20, func() {
		kickstarter.IncrementalDelete(sys.Graph(), sys.State(), nil)
	})
	run := func(tracer *obs.Tracer) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := obsTransition(tracer, sys, 0, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if off := run(obs.Active()) - work; off != 0 {
		t.Errorf("recording off: a transition allocates %v times for tracing, want 0", off)
	}
	obs.SetFlightRecording(true)
	ring := obs.NewFlightRecorder(0)
	if on := run(obs.New(obs.WithRingOnly(), obs.WithFlightRecorder(ring))) - work; on != obsTracingAllocs {
		t.Errorf("recording on: a transition allocates %v times for tracing, want %d", on, obsTracingAllocs)
	}
}
