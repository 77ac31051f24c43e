package analysis

import (
	"go/ast"
)

// CSRImmutable enforces the paper's mutation-free representation (§4.1,
// idea 3): once constructed, a graph.CSR is never written again. Any
// assignment, element write, append, or copy targeting a CSR backing
// field (starts, ends, targets, weights, n, m) outside the constructors in
// internal/graph is a contract violation — overlays, not mutation, are
// how snapshots differ.
var CSRImmutable = &Analyzer{
	Name: "csrimmutable",
	Doc:  "flag writes to graph.CSR backing arrays outside its constructors",
	Run:  runCSRImmutable,
}

// csrConstructors are the only functions allowed to populate a CSR.
var csrConstructors = map[string]bool{
	"NewCSR":        true,
	"NewReverseCSR": true,
	"NewCSRParts":   true,
	"PatchRows":     true,
	"buildCSR":      true,
	"reverseOf":     true,
}

var csrFields = map[string]bool{
	"n":       true,
	"starts":  true,
	"ends":    true,
	"targets": true,
	"weights": true,
	"m":       true,
}

func runCSRImmutable(pass *Pass) {
	forEachFunc(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Recv == nil && csrConstructors[fd.Name.Name] {
			return // constructor: population writes are the point
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range stmt.Lhs {
					sel, f := selectsField(pass.Info, lhs, "graph", "CSR", csrFields)
					if sel == nil {
						continue
					}
					// `c.f = append(c.f, ...)` is reported once, as the
					// append; don't double-report the rebind.
					if len(stmt.Lhs) == len(stmt.Rhs) {
						if call, ok := ast.Unparen(stmt.Rhs[i]).(*ast.CallExpr); ok &&
							isBuiltin(pass.Info, call, "append") && len(call.Args) > 0 {
							if s2, _ := selectsField(pass.Info, call.Args[0], "graph", "CSR", csrFields); s2 != nil {
								continue
							}
						}
					}
					pass.Reportf(lhs.Pos(),
						"write to graph.CSR field %q outside CSR constructors (the CSR is immutable after construction)",
						f.Name())
				}
			case *ast.IncDecStmt:
				if sel, f := selectsField(pass.Info, stmt.X, "graph", "CSR", csrFields); sel != nil {
					pass.Reportf(stmt.X.Pos(),
						"write to graph.CSR field %q outside CSR constructors (the CSR is immutable after construction)",
						f.Name())
				}
			case *ast.CallExpr:
				if isBuiltin(pass.Info, stmt, "append") && len(stmt.Args) > 0 {
					if sel, f := selectsField(pass.Info, stmt.Args[0], "graph", "CSR", csrFields); sel != nil {
						pass.Reportf(stmt.Args[0].Pos(),
							"append to graph.CSR field %q outside CSR constructors (the CSR is immutable after construction)",
							f.Name())
					}
				}
				if isBuiltin(pass.Info, stmt, "copy") && len(stmt.Args) > 0 {
					if sel, f := selectsField(pass.Info, stmt.Args[0], "graph", "CSR", csrFields); sel != nil {
						pass.Reportf(stmt.Args[0].Pos(),
							"copy into graph.CSR field %q outside CSR constructors (the CSR is immutable after construction)",
							f.Name())
					}
				}
			}
			return true
		})
	})
}
