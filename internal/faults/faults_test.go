package faults

import (
	"errors"
	"fmt"
	"testing"
)

func TestDisarmedCheckIsNil(t *testing.T) {
	if Enabled() {
		t.Fatal("registry armed at test start")
	}
	for _, p := range Points() {
		if err := Check(p); err != nil {
			t.Fatalf("disarmed Check(%s) = %v", p, err)
		}
	}
	if Hits(CoreSubtreeWalk) != 0 {
		t.Fatal("disarmed registry counted hits")
	}
}

func TestErrorSpecFiresAndIdentifiesPoint(t *testing.T) {
	disarm := Arm(&Plan{Specs: []Spec{{Point: StoreNewVersion}}})
	defer disarm()
	err := Check(StoreNewVersion)
	if err == nil {
		t.Fatal("armed point did not fire")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected error does not wrap ErrInjected: %v", err)
	}
	var f *Fault
	if !errors.As(err, &f) || f.Point != StoreNewVersion || f.Hit != 1 {
		t.Fatalf("fault metadata wrong: %+v", f)
	}
	if IsTransient(err) {
		t.Fatal("non-transient spec produced transient error")
	}
	// Unarmed points stay silent.
	if err := Check(CoreEngineRun); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestAfterAndTimes(t *testing.T) {
	disarm := Arm(&Plan{Specs: []Spec{{Point: CoreSubtreeWalk, After: 2, Times: 1}}})
	defer disarm()
	var fired []int
	for hit := 1; hit <= 5; hit++ {
		if err := Check(CoreSubtreeWalk); err != nil {
			fired = append(fired, hit)
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("After=2 Times=1 fired on hits %v, want [3]", fired)
	}
	if Hits(CoreSubtreeWalk) != 5 {
		t.Fatalf("hits = %d, want 5", Hits(CoreSubtreeWalk))
	}
}

func TestPanicMode(t *testing.T) {
	disarm := Arm(&Plan{Specs: []Spec{{Point: CoreSubtreeWalk, Mode: Panic}}})
	defer disarm()
	defer func() {
		r := recover()
		ip, ok := r.(*InjectedPanic)
		if !ok {
			t.Fatalf("recovered %T, want *InjectedPanic", r)
		}
		if ip.Point != CoreSubtreeWalk || ip.Hit != 1 {
			t.Fatalf("panic metadata wrong: %+v", ip)
		}
	}()
	Check(CoreSubtreeWalk)
	t.Fatal("panic-mode check returned")
}

func TestTransientMarking(t *testing.T) {
	disarm := Arm(&Plan{Specs: []Spec{{Point: StoreNewVersion, Transient: true}}})
	defer disarm()
	err := Check(StoreNewVersion)
	if !IsTransient(err) {
		t.Fatalf("transient spec not transient: %v", err)
	}
	// Transience survives wrapping, as production error paths wrap faults.
	if !IsTransient(fmt.Errorf("snapshot: new version: %w", err)) {
		t.Fatal("transience lost through wrapping")
	}
	if IsTransient(nil) || IsTransient(errors.New("plain")) {
		t.Fatal("IsTransient misclassified non-fault errors")
	}
}

// TestChaosDeterminism pins the seeded probabilistic mode: the same seed
// fires on the same hit sequence, a different seed on a different one.
func TestChaosDeterminism(t *testing.T) {
	run := func(seed uint64) []int {
		disarm := Arm(&Plan{Seed: seed, Specs: []Spec{{Point: CoreSubtreeWalk, Prob: 0.3}}})
		defer disarm()
		var fired []int
		for hit := 1; hit <= 64; hit++ {
			if err := Check(CoreSubtreeWalk); err != nil {
				fired = append(fired, hit)
			}
		}
		return fired
	}
	a, b, c := run(7), run(7), run(8)
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("prob 0.3 over 64 hits fired %d times; generator looks broken", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds produced identical firings: %v", a)
	}
}

func TestObserverSeesEveryHit(t *testing.T) {
	var seen []string
	disarm := Arm(&Plan{
		Specs:    []Spec{{Point: CoreEngineRun, After: 1}},
		Observer: func(p Point, hit int) { seen = append(seen, fmt.Sprintf("%s#%d", p, hit)) },
	})
	defer disarm()
	Check(CoreEngineRun)
	Check(CoreSubtreeWalk)
	Check(CoreEngineRun)
	want := fmt.Sprint([]string{"core.engine-run#1", "core.subtree-walk#1", "core.engine-run#2"})
	if fmt.Sprint(seen) != want {
		t.Fatalf("observer saw %v", seen)
	}
}

func TestDoubleArmPanics(t *testing.T) {
	disarm := Arm(&Plan{})
	defer disarm()
	defer func() {
		if recover() == nil {
			t.Fatal("second Arm did not panic")
		}
	}()
	Arm(&Plan{})
}
