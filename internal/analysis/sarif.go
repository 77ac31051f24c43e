package analysis

import (
	"encoding/json"
	"path/filepath"
	"strings"
)

// SARIF 2.1.0 serialization — the minimal subset GitHub code scanning
// consumes: one run, one driver with a rule per analyzer, one result per
// finding with a physical location. Static JSON structs beat a SARIF
// dependency the module is not allowed to take.

// sarifLevel is the level of every rule and result: each finding is an
// invariant violation.
const sarifLevel = "error"

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID                   string       `json:"id"`
	ShortDescription     sarifText    `json:"shortDescription"`
	DefaultConfiguration sarifDefault `json:"defaultConfiguration"`
}

type sarifDefault struct {
	Level string `json:"level"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF renders diagnostics as a SARIF 2.1.0 log. root anchors
// module-relative artifact URIs; analyzers populates the rule table
// (pass All so even clean runs document the suite).
func SARIF(diags []Diagnostic, analyzers []*Analyzer, root string) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:                   a.Name,
			ShortDescription:     sarifText{Text: a.Doc},
			DefaultConfiguration: sarifDefault{Level: sarifLevel},
		})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   sarifLevel,
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{
						URI:       moduleRel(root, d.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "cgvet", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(&log, "", "  ")
}

// moduleRel renders filename relative to the module root with forward
// slashes — a stable, machine-independent artifact URI.
func moduleRel(root, filename string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}
