package analysis

import (
	"go/ast"
	"go/types"
)

// GoPanic enforces the executor layer's panic-containment contract: every
// goroutine internal/core spawns must install a recovery wrapper as its
// first line of defence, so a panicking vertex program or schedule walk
// becomes a *core.PanicError instead of taking the whole process down
// (DESIGN.md "Failure semantics"). A `go` statement there must launch a
// function literal whose top-level statements include either
// `defer recoverToError(&err)` or a deferred closure that calls the
// recover builtin; a bare `go foo()` cannot be verified and is flagged
// too. Scoped to internal/core: the engine starts no goroutines, so every
// pass runs on a goroutine this analyzer has already checked.
var GoPanic = &Analyzer{
	Name: "gopanic",
	Doc:  "require a recovery wrapper in every goroutine internal/core spawns",
	Run:  runGoPanic,
}

func runGoPanic(pass *Pass) {
	if internalLeaf(pass.Path) != "core" {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				pass.Reportf(g.Pos(),
					"goroutine body is not a function literal; spawn a closure with `defer recoverToError(&err)` so a panic cannot crash the process")
				return true
			}
			if !installsRecovery(pass.Info, lit.Body) {
				pass.Reportf(g.Pos(),
					"goroutine installs no recovery wrapper; add `defer recoverToError(&err)` (or a deferred recover()) as a top-level statement")
			}
			return true
		})
	}
}

// installsRecovery reports whether a top-level statement of the goroutine
// body defers panic recovery: either a call to a function named
// recoverToError (the executor's helper) or a function literal that calls
// the recover builtin somewhere inside.
func installsRecovery(info *types.Info, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		d, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		switch fun := ast.Unparen(d.Call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "recoverToError" {
				return true
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == "recoverToError" {
				return true
			}
		case *ast.FuncLit:
			if callsRecover(info, fun.Body) {
				return true
			}
		}
	}
	return false
}

// callsRecover reports whether the block calls the recover builtin.
func callsRecover(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltin(info, call, "recover") {
			found = true
			return false
		}
		return true
	})
	return found
}
