// Command cgvet runs CommonGraph's invariant-checking static-analysis
// suite (internal/analysis) over the module: the syntactic tier (the
// mutation-free CSR contract, panic containment in the executor layer,
// silent library packages, file-handle ownership) and the flow tier
// (goroutine termination, durability error flow, ended spans), plus an
// auditor that rejects unjustified //cgvet:ignore suppressions.
//
// Usage:
//
//	go run ./cmd/cgvet ./...              # whole module
//	go run ./cmd/cgvet ./internal/core    # one package
//	go run ./cmd/cgvet -json ./...        # machine-readable findings
//	go run ./cmd/cgvet -sarif ./...       # SARIF 2.1.0 for code scanning
//	go run ./cmd/cgvet -list              # describe the analyzers
//
// Every finding is an error; the only way to accept one is an audited
// in-line //cgvet:ignore <analyzer> -- <reason>. Exit status: 0 when
// clean, 1 on any finding, 2 on load/internal errors. The suite also runs
// under go test as internal/analysis's TestModuleIsClean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"commongraph/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cgvet [-json|-sarif] [-list] [packages]\n\n"+
			"Runs CommonGraph's repo-specific analyzers. Package patterns are\n"+
			"module-relative (./..., ./internal/graph, ./internal/...); with no\n"+
			"pattern the whole module is checked.\n\nAnalyzers:\n")
		for _, a := range analysis.All {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "cgvet: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgvet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgvet:", err)
		os.Exit(2)
	}
	pkgs = filterPackages(pkgs, flag.Args())
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "cgvet: no packages match", flag.Args())
		os.Exit(2)
	}

	diags := analysis.RunAnalyzers(pkgs, analysis.All)

	switch {
	case *sarifOut:
		out, err := analysis.SARIF(diags, analysis.All, root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cgvet:", err)
			os.Exit(2)
		}
		os.Stdout.Write(append(out, '\n'))
	case *jsonOut:
		relativize(diags)
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "cgvet:", err)
			os.Exit(2)
		}
	default:
		relativize(diags)
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// filterPackages keeps the packages matching the go-style patterns. An
// empty pattern list, "./..." or "..." selects everything.
func filterPackages(pkgs []*analysis.Package, patterns []string) []*analysis.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	var out []*analysis.Package
	for _, p := range pkgs {
		for _, pat := range patterns {
			if matchPattern(p.Path, pat) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

func matchPattern(pkgPath, pattern string) bool {
	pattern = strings.TrimPrefix(pattern, "./")
	pattern = strings.TrimSuffix(pattern, "/")
	if pattern == "..." || pattern == "" || pattern == "." {
		return true
	}
	recursive := false
	if rest, ok := strings.CutSuffix(pattern, "/..."); ok {
		recursive = true
		pattern = rest
	}
	// Patterns are module-relative; package paths are fully qualified.
	if pkgPath == pattern || strings.HasSuffix(pkgPath, "/"+pattern) {
		return true
	}
	if recursive {
		for p := pkgPath; ; {
			i := strings.LastIndexByte(p, '/')
			if i < 0 {
				return false
			}
			p = p[:i]
			if p == pattern || strings.HasSuffix(p, "/"+pattern) {
				return true
			}
		}
	}
	return false
}

// relativize rewrites absolute file names relative to the working
// directory for readable terminal output.
func relativize(diags []analysis.Diagnostic) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(wd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
}
