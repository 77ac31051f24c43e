package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

// fixturePaths is the import path each analyzer's fixture
// (testdata/src/<analyzer>) is type-checked under: the path, not the
// directory, decides which of the analyzer's scoped rules apply.
var fixturePaths = map[string]string{
	"csrimmutable":  "commongraph/internal/graph",
	"gopanic":       "commongraph/internal/core",
	"obsdiscipline": "commongraph/internal/core",
	"closecheck":    "commongraph/internal/store",
	"goleak":        "commongraph/internal/engine",
	"errflow":       "commongraph/internal/store",
	"spanend":       "commongraph/internal/obs",
	"ignorehygiene": "commongraph/internal/core",
}

// TestFixtures runs every analyzer of the suite over its fixture, and
// fails on a fixture directory that names no analyzer of the suite — a
// <analyzer>_<suffix> directory counts as its analyzer's — so an analyzer
// cannot be deleted while its fixture stays behind.
func TestFixtures(t *testing.T) {
	names := make(map[string]bool, len(All))
	for _, a := range All {
		names[a.Name] = true
		t.Run(a.Name, func(t *testing.T) {
			path, ok := fixturePaths[a.Name]
			if !ok {
				t.Fatalf("no fixture import path for analyzer %s", a.Name)
			}
			runFixture(t, a.Name, path, a)
		})
	}
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if name, _, _ := strings.Cut(d.Name(), "_"); !names[name] {
			t.Errorf("testdata/src/%s is the fixture of no analyzer in All", d.Name())
		}
	}
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

// TestModuleIsClean runs the full suite over the real module: the tree
// must satisfy its own invariants. It is cgvet's gate — `go test ./...`
// fails on any finding and prints each one.
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

// TestSuppressionScopes pins down the directive grammar: named analyzer,
// bare (all analyzers), and the comment-above form.
func TestSuppressionScopes(t *testing.T) {
	sup := suppressions{
		"f.go": {
			10: {"goleak": true},
			20: {"": true},
		},
	}
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{10, "goleak", true},
		{11, "goleak", true}, // comment-above form
		{12, "goleak", false},
		{10, "errflow", false},
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
