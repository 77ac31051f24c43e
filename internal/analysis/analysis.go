// Package analysis is cgvet's engine: a self-contained static-analysis
// driver (stdlib go/parser + go/types only) that loads every package of
// the module and runs the repo-specific analyzers that earn their place —
// each either caught a real bug or guards an invariant no test, race run
// or chaos run would notice breaking: the mutation-free CSR, panic
// containment in the executor layer, silent library packages, goroutine
// termination, durability error flow, file-handle ownership and ended
// spans (DESIGN.md "Static analysis").
//
// A finding can be suppressed at a specific site with a comment on the
// same line or the line above:
//
//	//cgvet:ignore goleak -- serves until Close shuts the listener
//
// Omitting the analyzer list suppresses every analyzer on that line. The
// trailing "-- reason" (an em dash "—" works too) is mandatory: the
// ignorehygiene analyzer turns a bare ignore into a finding that no
// suppression can silence. There is no other suppression mechanism.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message. Every finding is an error.
type Diagnostic struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Path     string // import path, used to scope invariants
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info
	Pkg      *types.Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the cgvet suite, in reporting order: the syntactic tier first,
// then the flow tier (goleak, errflow, spanend — built on the CFG in
// flow.go), then the suppression auditor.
var All = []*Analyzer{
	CSRImmutable, GoPanic, ObsDiscipline, CloseCheck,
	GoLeak, ErrFlow, SpanEnd,
	IgnoreHygiene,
}

// RunAnalyzers applies each analyzer to each package, filters findings
// through //cgvet:ignore suppressions, and returns them sorted by
// position. The suite is pure: packages are never modified.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Info:     pkg.Info,
				Pkg:      pkg.Types,
				report: func(d Diagnostic) {
					// ignorehygiene audits the suppressions themselves; a bare
					// ignore must not be able to silence it.
					if d.Analyzer == IgnoreHygiene.Name || !sup.suppresses(d) {
						diags = append(diags, d)
					}
				},
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// suppressions maps file → line → set of suppressed analyzer names; the
// empty name means "all analyzers".
type suppressions map[string]map[int]map[string]bool

func (s suppressions) suppresses(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	// A comment suppresses its own line and the line directly below it
	// (comment-above-statement style).
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if names, ok := lines[line]; ok {
			if names[""] || names[d.Analyzer] {
				return true
			}
		}
	}
	return false
}

const ignoreDirective = "cgvet:ignore"

func collectSuppressions(pkg *Package) suppressions {
	sup := make(suppressions)
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(strings.TrimSpace(text), ignoreDirective)
				if text == strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) {
					continue // directive absent
				}
				// Drop the "-- reason" tail ("—" accepted too), then split
				// names. The reason is mandatory — ignorehygiene flags bare
				// directives — but this parser stays lenient so a bare ignore
				// still suppresses while its own finding surfaces.
				text, _ = splitIgnoreReason(text)
				pos := pkg.Fset.Position(c.Pos())
				lines := sup[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					sup[pos.Filename] = lines
				}
				names := lines[pos.Line]
				if names == nil {
					names = make(map[string]bool)
					lines[pos.Line] = names
				}
				fields := strings.FieldsFunc(text, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				})
				if len(fields) == 0 {
					names[""] = true
				}
				for _, f := range fields {
					names[f] = true
				}
			}
		}
	}
	return sup
}
