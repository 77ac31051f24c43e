package analysis

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestGoLeakScopedToLibraries proves commands are out of scope: the same
// leaky spawns under cmd/ die with the process and yield nothing.
func TestGoLeakScopedToLibraries(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "goleak"), "commongraph/cmd/cgquery")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{GoLeak}); len(diags) > 0 {
		t.Fatalf("command package flagged: %v", diags)
	}
}

// TestErrFlowScopedToStoreLayer proves the durability rules only bind the
// persistence layer: the same drops under internal/graph yield nothing.
func TestErrFlowScopedToStoreLayer(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "errflow"), "commongraph/internal/graph")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{ErrFlow}); len(diags) > 0 {
		t.Fatalf("out-of-scope package flagged: %v", diags)
	}
}

// TestSARIFShape pins the serialized envelope to what GitHub code
// scanning consumes: version, driver name, per-analyzer rules, and a
// result with a module-relative location.
func TestSARIFShape(t *testing.T) {
	root := t.TempDir()
	d := Diagnostic{Analyzer: "errflow", Message: "error from f.Sync is silently dropped"}
	d.Pos.Filename = filepath.Join(root, "store.go")
	d.Pos.Line = 7
	d.Pos.Column = 2

	out, err := SARIF([]Diagnostic{d}, All, root)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("SARIF is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "cgvet" {
		t.Fatalf("driver shape wrong: %+v", log.Runs)
	}
	if len(log.Runs[0].Tool.Driver.Rules) != len(All) {
		t.Errorf("rules = %d, want one per analyzer (%d)", len(log.Runs[0].Tool.Driver.Rules), len(All))
	}
	res := log.Runs[0].Results
	if len(res) != 1 || res[0].RuleID != "errflow" || res[0].Level != "error" {
		t.Fatalf("result shape wrong: %+v", res)
	}
	loc := res[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "store.go" || loc.Region.StartLine != 7 {
		t.Errorf("location wrong: %+v", loc)
	}
}
