package faults

import (
	"testing"

	"commongraph/internal/obs"
)

// TestFiringsIncrementObsCounter pins the observability wiring: every
// firing (error or panic mode) increments the canonical per-point
// counter, while non-firing checks do not.
func TestFiringsIncrementObsCounter(t *testing.T) {
	c := obs.FaultFirings(string(CoreSubtreeWalk))
	before := c.Value()

	disarm := Arm(&Plan{Specs: []Spec{{Point: CoreSubtreeWalk, After: 1, Times: 2}}})
	defer disarm()

	if err := Check(CoreSubtreeWalk); err != nil {
		t.Fatalf("hit 1 fired early: %v", err)
	}
	if got := c.Value() - before; got != 0 {
		t.Fatalf("non-firing check incremented the counter by %d", got)
	}
	for hit := 2; hit <= 3; hit++ {
		if err := Check(CoreSubtreeWalk); err == nil {
			t.Fatalf("hit %d did not fire", hit)
		}
	}
	if err := Check(CoreSubtreeWalk); err != nil {
		t.Fatalf("Times cap ignored: %v", err)
	}
	if got := c.Value() - before; got != 2 {
		t.Fatalf("counter moved by %d, want 2 (one per firing)", got)
	}
}

// TestPanicFiringCounts asserts panic-mode injections count too.
func TestPanicFiringCounts(t *testing.T) {
	c := obs.FaultFirings(string(CoreEngineRun))
	before := c.Value()
	disarm := Arm(&Plan{Specs: []Spec{{Point: CoreEngineRun, Mode: Panic}}})
	defer disarm()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("armed panic spec did not panic")
			}
		}()
		_ = Check(CoreEngineRun)
	}()
	if got := c.Value() - before; got != 1 {
		t.Fatalf("panic firing moved the counter by %d, want 1", got)
	}
}
