package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestParamsDefaults(t *testing.T) {
	p := Default()
	if p.SizeFactor != 4 || p.Snapshots != 50 {
		t.Fatalf("%+v", p)
	}
	if p.Batch(75_000) != 3000 {
		t.Fatalf("batch=%d", p.Batch(75_000))
	}
	if p.Batch(100) != 10 {
		t.Fatalf("floor not applied: %d", p.Batch(100))
	}
	t.Setenv("COMMONGRAPH_SCALE", "2")
	p = Default()
	if p.SizeFactor != 8 || p.Batch(75_000) != 6000 {
		t.Fatalf("scaled params wrong: %+v", p)
	}
	t.Setenv("COMMONGRAPH_SCALE", "bogus")
	p = Default()
	if p.SizeFactor != 4 {
		t.Fatalf("bogus scale accepted: %+v", p)
	}
}

func TestWorkloadCaching(t *testing.T) {
	p := Tiny()
	a, err := BuildWorkload("LJ-sim", p, 3, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorkload("LJ-sim", p, 3, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache miss for identical config")
	}
	c, err := BuildWorkload("LJ-sim", p, 3, 20, 25)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different config hit the same cache entry")
	}
	if _, err := BuildWorkload("nope", p, 3, 20, 20); err == nil {
		t.Fatal("unknown graph accepted")
	}
	if a.Store.NumVersions() != 4 {
		t.Fatalf("versions=%d", a.Store.NumVersions())
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"A", "LongHeader"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("x", "y")
	tab.AddRow("longer-cell", "z")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T — demo ==", "LongHeader", "longer-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormattingHelpers(t *testing.T) {
	if secs(1500*time.Millisecond) != "1.50s" {
		t.Fatalf("secs: %s", secs(1500*time.Millisecond))
	}
	if secs(120*time.Second) != "120s" {
		t.Fatalf("secs: %s", secs(120*time.Second))
	}
	if secs(3*time.Millisecond) != "0.0030s" {
		t.Fatalf("secs: %s", secs(3*time.Millisecond))
	}
	if speedup(2*time.Second, time.Second) != "2.00x" {
		t.Fatalf("speedup: %s", speedup(2*time.Second, time.Second))
	}
	if speedup(time.Second, 0) != "inf" {
		t.Fatalf("speedup zero: %s", speedup(time.Second, 0))
	}
}

func TestRegistry(t *testing.T) {
	if len(Experiments()) != 15 {
		t.Fatalf("experiments=%d", len(Experiments()))
	}
	if _, ok := ByName("table4"); !ok {
		t.Fatal("table4 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("phantom experiment")
	}
	names := Names()
	if len(names) != 15 || names[0] > names[len(names)-1] {
		t.Fatalf("names=%v", names)
	}
	var buf bytes.Buffer
	if err := RunAndPrint(&buf, "nope", Tiny()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestEveryExperimentRunsAtTinyScale executes every registered experiment
// end to end with miniature parameters — the harness's integration test.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := Tiny()
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tab, err := e.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if tab.ID == "" || len(tab.Header) == 0 {
				t.Fatal("table metadata missing")
			}
			var buf bytes.Buffer
			tab.Fprint(&buf)
			if buf.Len() == 0 {
				t.Fatal("nothing printed")
			}
		})
	}
}

func TestRunAllConsistency(t *testing.T) {
	p := Tiny()
	w, err := BuildWorkload("LJ-sim", p, p.Snapshots-1, 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runAll(w, 0, p.Snapshots-1, algoBFS(), p.src(), true)
	if err != nil {
		t.Fatal(err)
	}
	if st.KS <= 0 || st.DH <= 0 || st.WS <= 0 {
		t.Fatalf("non-positive times: %+v", st)
	}
	if st.WSAdditions > st.DHAdditions {
		t.Fatalf("work sharing streamed more additions (%d) than direct hop (%d)",
			st.WSAdditions, st.DHAdditions)
	}
	if st.MaxHop <= 0 {
		t.Fatal("no parallel hop time")
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"A", "B"},
	}
	tab.AddRow("plain", `with,comma and "quote"`)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "A,B\nplain,\"with,comma and \"\"quote\"\"\"\n"
	if buf.String() != want {
		t.Fatalf("csv = %q want %q", buf.String(), want)
	}
}
