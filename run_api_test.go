package commongraph

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"commongraph/internal/core"
	"commongraph/internal/obs"
)

// TestRunMatchesEvaluate: Run under every strategy must produce the
// results of evaluating each snapshot from scratch (Independent).
func TestRunMatchesEvaluate(t *testing.T) {
	g, _ := buildEvolving(t, 19, 4, 60, 60)
	q := Query{Algorithm: SSSP, Source: 0}
	old, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 4}, Strategy: Independent})
	if err != nil {
		t.Fatalf("Independent: %v", err)
	}
	for _, s := range Strategies() {
		res, err := g.Run(context.Background(), Request{
			Query:    q,
			Window:   Window{From: 0, To: 4},
			Strategy: s,
		})
		if err != nil {
			t.Fatalf("%v: Run: %v", s, err)
		}
		if len(res.Snapshots) != len(old.Snapshots) {
			t.Fatalf("%v: snapshot count %d vs %d", s, len(res.Snapshots), len(old.Snapshots))
		}
		for i := range res.Snapshots {
			if res.Snapshots[i].Checksum != old.Snapshots[i].Checksum ||
				res.Snapshots[i].Reached != old.Snapshots[i].Reached {
				t.Fatalf("%v snapshot %d: Run and the from-scratch evaluation disagree", s, i)
			}
		}
	}
}

// TestRunNilContext documents that a nil context means Background.
func TestRunNilContext(t *testing.T) {
	g, _ := buildEvolving(t, 23, 2, 30, 30)
	res, err := g.Run(nil, Request{
		Query:    Query{Algorithm: BFS, Source: 0},
		Window:   Window{From: 0, To: 2},
		Strategy: DirectHop,
	})
	if err != nil || len(res.Snapshots) != 3 {
		t.Fatalf("nil ctx: res=%v err=%v", res, err)
	}
}

// TestRunCancelledContext: a context cancelled before the call must abort
// the evaluation with the context's error.
func TestRunCancelledContext(t *testing.T) {
	g, _ := buildEvolving(t, 29, 3, 40, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.Run(ctx, Request{
		Query:    Query{Algorithm: BFS, Source: 0},
		Window:   Window{From: 0, To: 3},
		Strategy: WorkSharing,
	})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestWatcherRunMatchesEvaluate: the Watcher's Run must agree with the
// graph's evaluation of the maintained window, and the request's Window
// must be ignored in favor of it.
func TestWatcherRunMatchesEvaluate(t *testing.T) {
	g, _ := buildEvolving(t, 37, 4, 50, 50)
	w, err := g.Watch(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Algorithm: SSSP, Source: 0}
	old, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 3}, Strategy: WorkSharing})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(context.Background(), Request{
		Query:    q,
		Window:   Window{From: 99, To: 7}, // nonsense on purpose: maintained window wins
		Strategy: WorkSharing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != len(old.Snapshots) {
		t.Fatalf("snapshot count %d vs %d", len(res.Snapshots), len(old.Snapshots))
	}
	for i := range res.Snapshots {
		if res.Snapshots[i].Checksum != old.Snapshots[i].Checksum {
			t.Fatalf("snapshot %d: Watcher.Run and EvolvingGraph.Run disagree", i)
		}
	}
}

// TestRunMultiMatchesEvaluateMulti: RunMulti must agree with evaluating
// each of its queries alone, and each of its queries goes through Run's
// envelope: one evaluate root and one commongraph_queries_total count per
// query, and a schedule built by the first query and reused by the rest.
func TestRunMultiMatchesEvaluateMulti(t *testing.T) {
	g, _ := buildEvolving(t, 41, 3, 40, 40)
	queries := []Query{
		{Algorithm: BFS, Source: 0},
		{Algorithm: SSSP, Source: 1},
		{Algorithm: SSWP, Source: 2},
	}
	old := make([]*Result, len(queries))
	for i, q := range queries {
		var err error
		old[i], err = g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 3}, Strategy: DirectHop})
		if err != nil {
			t.Fatal(err)
		}
	}
	tr := NewTracer()
	counted := obs.Queries(WorkSharing.Slug()).Value()
	res, err := g.RunMulti(context.Background(), queries, Window{From: 0, To: 3}, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(old) {
		t.Fatalf("result count %d vs %d", len(res), len(old))
	}
	for qi := range res {
		for i := range res[qi].Snapshots {
			if res[qi].Snapshots[i].Checksum != old[qi].Snapshots[i].Checksum {
				t.Fatalf("query %d snapshot %d: RunMulti and Run disagree", qi, i)
			}
		}
	}
	if got := obs.Queries(WorkSharing.Slug()).Value() - counted; got != int64(len(queries)) {
		t.Errorf("commongraph_queries_total{strategy=%q} rose by %d, want %d", WorkSharing.Slug(), got, len(queries))
	}
	var roots int
	var hits []string
	for _, ev := range tr.Events() {
		switch {
		case ev.Name == "evaluate" && ev.Parent == 0:
			roots++
		case ev.Name == "plan.build":
			hits = append(hits, ev.Attr("hit"))
		}
	}
	if roots != len(queries) {
		t.Errorf("%d evaluate roots for %d queries", roots, len(queries))
	}
	if want := []string{"false", "true", "true"}; !reflect.DeepEqual(hits, want) {
		t.Errorf("plan.build hit per query = %v, want %v (schedule built once)", hits, want)
	}
}

// TestParseStrategyRoundTrip: every strategy parses back from both its
// Slug and its String form, case-insensitively.
func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range Strategies() {
		for _, form := range []string{s.Slug(), s.String(), strings.ToUpper(s.Slug())} {
			got, err := ParseStrategy(form)
			if err != nil {
				t.Fatalf("ParseStrategy(%q): %v", form, err)
			}
			if got != s {
				t.Fatalf("ParseStrategy(%q) = %v, want %v", form, got, s)
			}
		}
	}
}

// TestParseStrategyAliases covers the documented short forms.
func TestParseStrategyAliases(t *testing.T) {
	aliases := map[string]Strategy{
		"ks":    KickStarter,
		"indep": Independent,
		"dh":    DirectHop,
		"dhp":   DirectHopParallel,
		"ws":    WorkSharing,
		"wsp":   WorkSharingParallel,
	}
	for in, want := range aliases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// TestParseStrategyUnknown: an unknown name errors and the message lists
// the valid slugs so CLI users can self-correct.
func TestParseStrategyUnknown(t *testing.T) {
	_, err := ParseStrategy("quantum-hop")
	if err == nil {
		t.Fatal("want error for unknown strategy")
	}
	if !strings.Contains(err.Error(), "work-sharing") || !strings.Contains(err.Error(), "kickstarter") {
		t.Fatalf("error should list valid strategies, got: %v", err)
	}
}

// TestPlanOptimalSchedule: the schedule Plan reports — the one Run walks —
// never costs more than the paper's greedy tree or the Direct-Hop star
// over the same window, and its depth is a real tree's.
func TestPlanOptimalSchedule(t *testing.T) {
	g, _ := buildEvolving(t, 43, 6, 80, 80)
	plan, err := g.Plan(0, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := core.BuildTG(core.Window{Store: g.Store(), From: 0, To: 6})
	if err != nil {
		t.Fatal(err)
	}
	if greedy := core.SteinerGreedy(tg).Cost; plan.WorkSharingAdditions > greedy {
		t.Fatalf("plan schedule costs %d > greedy %d", plan.WorkSharingAdditions, greedy)
	}
	if plan.WorkSharingAdditions > plan.DirectHopAdditions {
		t.Fatalf("plan schedule costs %d > direct-hop %d", plan.WorkSharingAdditions, plan.DirectHopAdditions)
	}
	if plan.Snapshots != 7 || plan.Depth < 1 || plan.Depth > 6 {
		t.Fatalf("plan shape: %d snapshots, depth %d", plan.Snapshots, plan.Depth)
	}
}

// TestWindowWidth nails the inclusive-range arithmetic.
func TestWindowWidth(t *testing.T) {
	if w := (Window{From: 0, To: 0}).Width(); w != 1 {
		t.Fatalf("width of [0,0] = %d", w)
	}
	if w := (Window{From: 2, To: 6}).Width(); w != 5 {
		t.Fatalf("width of [2,6] = %d", w)
	}
}
