package commongraph

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"commongraph/internal/obs"
)

// TestTimingsAttributionAllStrategies proves every strategy attributes
// its wall time to the right phases. The worker budget is pinned to 1,
// so the execution is fully serialized and the per-phase sum is a set of
// disjoint subintervals of Total. Tracing is enabled so the
// allocation deltas populate too.
func TestTimingsAttributionAllStrategies(t *testing.T) {
	q := Query{Algorithm: SSSP, Source: 0}

	// Which phases each strategy is expected to exercise on a
	// multi-snapshot window with churn.
	cases := []struct {
		strategy             Strategy
		add, del, mut, clone bool
	}{
		{KickStarter, true, true, true, false},
		{Independent, false, false, true, false},
		{DirectHop, true, false, true, true},
		{DirectHopParallel, true, false, true, true},
		{WorkSharing, true, false, true, false},
		{WorkSharingParallel, true, false, true, false},
	}
	for _, c := range cases {
		t.Run(c.strategy.String(), func(t *testing.T) {
			// A graph of its own: Mutation is the construction this call
			// paid for, so the window's plan must be cold.
			g, _ := buildEvolving(t, 7007, 9, 120, 120)
			opt := Options{Workers: 1, Trace: NewTracer()}
			res, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 9}, Strategy: c.strategy, Options: opt})
			if err != nil {
				t.Fatal(err)
			}
			if c.strategy == DirectHop || c.strategy == WorkSharing {
				warm, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 9}, Strategy: c.strategy, Options: opt})
				if err != nil {
					t.Fatal(err)
				}
				if warm.Timings.Mutation >= res.Timings.Mutation {
					t.Errorf("Mutation on the warm plan %v, on the cold one %v: the second call paid for construction again",
						warm.Timings.Mutation, res.Timings.Mutation)
				}
			}
			ti := res.Timings
			if ti.Total <= 0 {
				t.Fatal("Total not recorded")
			}
			if ti.InitialCompute <= 0 {
				t.Error("InitialCompute not recorded")
			}
			check := func(name string, d time.Duration, want bool) {
				if want && d <= 0 {
					t.Errorf("%s = 0, expected non-zero", name)
				}
				if !want && d < 0 {
					t.Errorf("%s negative: %v", name, d)
				}
			}
			check("IncrementalAdd", ti.IncrementalAdd, c.add)
			check("IncrementalDelete", ti.IncrementalDelete, c.del)
			check("Mutation", ti.Mutation, c.mut)
			check("StateClone", ti.StateClone, c.clone)
			if !c.del && ti.IncrementalDelete != 0 {
				t.Errorf("IncrementalDelete = %v for a deletion-free strategy", ti.IncrementalDelete)
			}
			sum := ti.InitialCompute + ti.IncrementalAdd + ti.IncrementalDelete + ti.Mutation + ti.StateClone
			if sum > ti.Total+time.Millisecond {
				t.Errorf("phase sum %v exceeds wall total %v on a serialized run", sum, ti.Total)
			}
			if ti.AllocBytes == 0 || ti.Mallocs == 0 {
				t.Errorf("allocation deltas not populated under tracing: bytes=%d mallocs=%d",
					ti.AllocBytes, ti.Mallocs)
			}
		})
	}
}

// TestMaxHopTimeRecordedPerStrategy pins the contract on Result.MaxHopTime:
// non-zero for every strategy with an independent unit (per-snapshot hops,
// root schedule subtrees), zero only for the fully sequential KickStarter
// plan.
func TestMaxHopTimeRecordedPerStrategy(t *testing.T) {
	g, _ := buildEvolving(t, 7009, 8, 100, 100)
	q := Query{Algorithm: BFS, Source: 0}
	for _, s := range []Strategy{Independent, DirectHop, DirectHopParallel, WorkSharing, WorkSharingParallel} {
		res, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 8}, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxHopTime <= 0 {
			t.Errorf("%s: MaxHopTime not recorded", s)
		}
		if res.MaxHopTime > res.Timings.Total {
			t.Errorf("%s: MaxHopTime %v exceeds total %v", s, res.MaxHopTime, res.Timings.Total)
		}
	}
	res, err := g.Run(context.Background(), Request{Query: q, Window: Window{From: 0, To: 8}, Strategy: KickStarter})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxHopTime != 0 {
		t.Errorf("KickStarter: MaxHopTime = %v, want 0 (no independent units)", res.MaxHopTime)
	}
}

// TestDeferredFoldIsObservable: a slide that leaves its backlog for a
// later fold says so — the backlog is on the watcher.slide span and in
// the fold-backlog gauge, beside a compaction counter that did not move.
func TestDeferredFoldIsObservable(t *testing.T) {
	g, _ := buildEvolving(t, 7013, 4, 10, 10)
	gs, err := g.Persist(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	w, err := g.Watch(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.PersistMaintenance(gs)
	compactions := obs.Compactions().Value()
	if err := w.Slide(); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitCompaction(); err != nil {
		t.Fatal(err)
	}
	// One 10 + 10 transition is behind the window, far under the ratio.
	var text bytes.Buffer
	if err := obs.Default().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if got := promValue(t, text.String(), "commongraph_store_fold_backlog_edges"); got != 20 {
		t.Errorf("fold backlog gauge = %d after one deferred slide, want 20", got)
	}
	if got := obs.Compactions().Value(); got != compactions {
		t.Errorf("a 20-edge backlog was folded (%d compactions)", got-compactions)
	}
	if obs.Env() != nil {
		return // spans go to the COMMONGRAPH_TRACE tracer, not the flight ring
	}
	recs := obs.Flight().Records()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Root.Name != "watcher.slide" {
			continue
		}
		for _, a := range recs[i].Root.Attrs {
			if a.Key == "backlog_edges" && a.Value == "20" {
				return
			}
		}
		t.Fatalf("newest watcher.slide span carries no backlog_edges=20: %v", recs[i].Root.Attrs)
	}
	t.Fatal("no watcher.slide span in the flight ring")
}

// TestSlideSpanReportsRowPatch: a slide's span says what it wrote into
// the common graph — the rows rewritten, the edges they hold, and whether
// the patch compacted — the same figures the maintained window reports.
func TestSlideSpanReportsRowPatch(t *testing.T) {
	if obs.Env() != nil {
		t.Skip("spans go to the COMMONGRAPH_TRACE tracer, not the flight ring")
	}
	g, _ := buildEvolving(t, 7014, 5, 30, 30)
	w, err := g.Watch(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 2; i++ {
		if err := w.Slide(); err != nil {
			t.Fatal(err)
		}
		w.mu.RLock()
		p := w.m.Patched()
		w.mu.RUnlock()
		if p.Rows == 0 {
			t.Fatalf("slide %d rewrote no row of the common graph; the stream should change it", i)
		}
		want := map[string]string{
			"rows_rewritten":  strconv.Itoa(p.Rows),
			"edges_rewritten": strconv.Itoa(p.Edges),
			"compacted":       strconv.FormatBool(p.Compacted),
		}
		recs := obs.Flight().Records()
		r := len(recs) - 1
		for r >= 0 && recs[r].Root.Name != "watcher.slide" {
			r--
		}
		if r < 0 {
			t.Fatal("no watcher.slide span in the flight ring")
		}
		for _, a := range recs[r].Root.Attrs {
			if v, ok := want[a.Key]; ok && v == a.Value {
				delete(want, a.Key)
			}
		}
		if len(want) > 0 {
			t.Fatalf("watcher.slide span %d lacks %v: %v", i, want, recs[r].Root.Attrs)
		}
	}
}

// promValue extracts one sample's value from a Prometheus exposition.
func promValue(t *testing.T, text, series string) int64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + " ([0-9]+)$")
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %s not in exposition:\n%s", series, text)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMetricsEndpointReflectsEvaluations runs real evaluations against a
// watcher, scrapes its HTTP metrics endpoint like a Prometheus server
// would, and asserts the scraped counters against the Result fields the
// evaluations returned. The registry is process-global, so everything is
// asserted as before/after deltas.
func TestMetricsEndpointReflectsEvaluations(t *testing.T) {
	g, _ := buildEvolving(t, 7011, 8, 80, 80)
	w, err := g.Watch(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := w.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	const slug = "work-sharing"
	scrape := func() string {
		resp, err := http.Get(ms.URL())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ParseExposition(body); err != nil {
			t.Fatalf("endpoint serves malformed exposition: %v", err)
		}
		return string(body)
	}
	queriesSeries := fmt.Sprintf(`commongraph_queries_total{strategy=%q}`, slug)
	addsSeries := fmt.Sprintf(`commongraph_additions_streamed_total{strategy=%q}`, slug)
	snapsSeries := fmt.Sprintf(`commongraph_snapshots_evaluated_total{strategy=%q}`, slug)

	// Prime the series so the before-scrape has them even on a fresh
	// registry, then measure the deltas of three more evaluations.
	if _, err := w.Run(context.Background(), Request{Query: Query{Algorithm: BFS, Source: 0}, Strategy: WorkSharing}); err != nil {
		t.Fatal(err)
	}
	before := scrape()
	var adds, snaps int64
	const runs = 3
	for i := 0; i < runs; i++ {
		res, err := w.Run(context.Background(), Request{Query: Query{Algorithm: BFS, Source: 0}, Strategy: WorkSharing})
		if err != nil {
			t.Fatal(err)
		}
		adds += res.AdditionsProcessed
		snaps += int64(len(res.Snapshots))
	}
	after := scrape()

	if got := promValue(t, after, queriesSeries) - promValue(t, before, queriesSeries); got != runs {
		t.Errorf("queries counter delta = %d, want %d", got, runs)
	}
	if got := promValue(t, after, addsSeries) - promValue(t, before, addsSeries); got != adds {
		t.Errorf("additions counter delta = %d, Result fields sum to %d", got, adds)
	}
	if got := promValue(t, after, snapsSeries) - promValue(t, before, snapsSeries); got != snaps {
		t.Errorf("snapshots counter delta = %d, Result fields sum to %d", got, snaps)
	}

	// The JSON view of the same registry must agree with the text view.
	resp, err := http.Get(ms.URL() + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var flat map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatalf("JSON metrics view does not parse: %v", err)
	}
	family, ok := flat["commongraph_queries_total"].(map[string]any)
	if !ok {
		t.Fatalf("JSON view missing commongraph_queries_total family: %v", flat["commongraph_queries_total"])
	}
	if v, ok := family[`strategy="`+slug+`"`]; !ok {
		t.Errorf("JSON view missing the %s series of commongraph_queries_total", slug)
	} else if int64(v.(float64)) != promValue(t, after, queriesSeries) {
		t.Errorf("JSON view = %v, text view = %d", v, promValue(t, after, queriesSeries))
	}

	// The companion /window endpoint reports the live window.
	wresp, err := http.Get("http://" + ms.Addr() + "/window")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var win struct {
		From        int `json:"from"`
		To          int `json:"to"`
		Width       int `json:"width"`
		CommonEdges int `json:"common_edges"`
	}
	if err := json.NewDecoder(wresp.Body).Decode(&win); err != nil {
		t.Fatal(err)
	}
	from, to := w.Window()
	if win.From != from || win.To != to || win.Width != to-from+1 {
		t.Errorf("/window = %+v, watcher window [%d,%d]", win, from, to)
	}
	if win.CommonEdges != w.CommonEdges() {
		t.Errorf("/window common_edges = %d, watcher reports %d", win.CommonEdges, w.CommonEdges())
	}
}
