package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts the expectation regex from a `// want `+"`rx`"+“ comment.
var wantRe = regexp.MustCompile("want\\s+`([^`]+)`")

type wantKey struct {
	file string
	line int
}

// collectWants scans a fixture package for // want `regex` comments,
// keyed by position.
func collectWants(pkg *Package) map[wantKey][]*regexp.Regexp {
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				// A comment may hold several expectations: want `a` want `b`
				// (analyzers can report twice on one line).
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					k := wantKey{file: pos.Filename, line: pos.Line}
					wants[k] = append(wants[k], regexp.MustCompile(m[1]))
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<dir> under the synthetic import path and
// checks the analyzer's diagnostics against the fixture's want comments:
// every diagnostic must match a want on its line, every want must fire.
func runFixture(t *testing.T, dir, asPath string, a *Analyzer) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", dir), asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	wants := collectWants(pkg)
	matched := make(map[wantKey][]bool)
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		k := wantKey{file: d.Pos.Filename, line: d.Pos.Line}
		ok := false
		for i, re := range wants[k] {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(k.file), k.line, d.Message)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("missing diagnostic at %s:%d matching %q",
					filepath.Base(k.file), k.line, re.String())
			}
		}
	}
}

func TestCSRImmutableFixture(t *testing.T) {
	runFixture(t, "csrimmutable", "commongraph/internal/graph", CSRImmutable)
}

func TestLockDisciplineFixture(t *testing.T) {
	runFixture(t, "lockdiscipline", "commongraph/internal/core", LockDiscipline)
}

func TestStateWriteFixture(t *testing.T) {
	runFixture(t, "statewrite", "commongraph/internal/engine", StateWrite)
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determinism", "commongraph/internal/graph", Determinism)
}

func TestGoPanicFixture(t *testing.T) {
	runFixture(t, "gopanic", "commongraph/internal/core", GoPanic)
}

// TestGoPanicScopedToCore proves the analyzer keeps out of other layers:
// the same unprotected goroutines under internal/engine yield nothing.
func TestGoPanicScopedToCore(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "gopanic"), "commongraph/internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{GoPanic}); len(diags) > 0 {
		t.Fatalf("out-of-scope package flagged: %v", diags)
	}
}

func TestObsDisciplineFixture(t *testing.T) {
	runFixture(t, "obsdiscipline", "commongraph/internal/core", ObsDiscipline)
}

// TestObsDisciplineScopedToLibraries proves commands and examples keep
// their terminal: the same printing under cmd/ and examples/ paths yields
// zero diagnostics.
func TestObsDisciplineScopedToLibraries(t *testing.T) {
	for _, asPath := range []string{"commongraph/cmd/cgquery", "commongraph/examples/monitor"} {
		pkg, err := LoadDir(filepath.Join("testdata", "src", "obsdiscipline"), asPath)
		if err != nil {
			t.Fatal(err)
		}
		if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{ObsDiscipline}); len(diags) > 0 {
			t.Fatalf("human-facing package %s flagged: %v", asPath, diags)
		}
	}
}

// TestDeterminismAllowlistedPath proves the same constructs are legal in
// the harness layer: the identical rand/time usage under internal/bench
// yields zero diagnostics.
func TestDeterminismAllowlistedPath(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "determinism_allowed"), "commongraph/internal/bench")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism}); len(diags) > 0 {
		t.Fatalf("allowlisted package flagged: %v", diags)
	}
}

// TestModuleIsClean runs the full suite over the real module: the tree
// must satisfy its own invariants (the CI gate `go run ./cmd/cgvet ./...`
// relies on exactly this property).
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (and stdlib) from source")
	}
	pkgs, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags := RunAnalyzers(pkgs, All)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestByName(t *testing.T) {
	for _, a := range All {
		if ByName(a.Name) != a {
			t.Fatalf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName of unknown analyzer should be nil")
	}
}

// TestSuppressionScopes pins down the directive grammar: named analyzer,
// bare (all analyzers), and the comment-above form.
func TestSuppressionScopes(t *testing.T) {
	sup := suppressions{
		"f.go": {
			10: {"lockdiscipline": true},
			20: {"": true},
		},
	}
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{10, "lockdiscipline", true},
		{11, "lockdiscipline", true}, // comment-above form
		{12, "lockdiscipline", false},
		{10, "statewrite", false},
		{20, "anything", true},
		{21, "anything", true},
	}
	for _, c := range cases {
		d := Diagnostic{Analyzer: c.analyzer}
		d.Pos.Filename = "f.go"
		d.Pos.Line = c.line
		if got := sup.suppresses(d); got != c.want {
			t.Errorf("line %d analyzer %s: suppressed=%v want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

func TestCloseCheckFixture(t *testing.T) {
	runFixture(t, "closecheck", "commongraph/internal/store", CloseCheck)
}

// TestCloseCheckScopedToLibraries proves short-lived commands are out of
// scope: the same leaks under a cmd/ path yield zero diagnostics.
func TestCloseCheckScopedToLibraries(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "closecheck"), "commongraph/cmd/cgquery")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{CloseCheck}); len(diags) > 0 {
		t.Fatalf("command package flagged: %v", diags)
	}
}
