package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrFlow guards the durability contract from PR 5: in the persistence
// layer (internal/store and the root package's GraphStore/Ingestor
// plumbing), an error produced by a write, sync, truncate, flush, or
// close must *go* somewhere — a return, the WAL's poison state, a
// rollback, or a metrics counter. A dropped durability error is how a
// store silently diverges from its disk; replaying a WAL whose append
// "succeeded" into a store whose fsync failed is exactly the corruption
// the recovery tests exist to prevent.
//
// Flagged shapes:
//
//   - a risky call used as a bare statement (`f.Sync()`), unless it is
//     cleanup inside an error branch that already returns the original
//     error (the `if err != nil { f.Close(); return err }` idiom);
//   - a risky call assigned to `_`, same exemption;
//   - a risky call assigned to a variable whose value is overwritten or
//     falls out of scope before anything reads it (flow-tier
//     reaching-definitions query);
//   - `defer f.Close()` on a file opened for writing with no explicit
//     checked Close on the success path — the deferred error evaporates.
//     Read-only handles (os.Open) may defer-close freely.
//
// A deliberately dropped error — e.g. closing a file whose contents are
// already fsynced and which is about to be replaced — carries
// //cgvet:ignore errflow -- <why the error does not matter>.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "durability errors in the store layer must reach a return, poison/rollback path, or metric",
	Run:  runErrFlow,
}

// riskyNames are the method names whose error results carry durability
// information.
var riskyNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true, "Sync": true,
	"Truncate": true, "Flush": true, "Close": true, "Commit": true,
}

// riskyOSFuncs are package-level os functions in the same class.
var riskyOSFuncs = map[string]bool{"WriteFile": true, "Rename": true, "Remove": true}

func runErrFlow(pass *Pass) {
	if !errflowScope(pass.Path) {
		return
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkErrFlowFrame(pass, fd.Type, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkErrFlowFrame(pass, lit.Type, lit.Body)
				}
				return true
			})
		}
	}
}

// errflowScope: internal/store plus the module's root package (store.go,
// ingest.go and friends live there). Commands own their exit policy.
func errflowScope(path string) bool {
	if internalLeaf(path) == "store" {
		return true
	}
	return !strings.Contains(path, "/") // module root package
}

// checkErrFlowFrame analyzes one function body (nested literals are
// separate frames — their defers and opens are their own).
func checkErrFlowFrame(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	g := buildFlow(body, pass.Info)
	written := writableHandles(pass, body)
	checked := checkedCloses(pass, body)
	named := namedResultObjs(pass, ftype)
	walkSameFunc(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok || !isRiskyCall(pass.Info, call) {
				return
			}
			if inErrBranch(pass.Info, body, st) {
				return // cleanup; the original error is already on its way out
			}
			pass.Reportf(st.Pos(),
				"error from %s is silently dropped; return it, feed the poison/rollback path, or count it in a metric (//cgvet:ignore errflow -- <why it cannot matter> if truly benign)",
				calleeName(call))
		case *ast.AssignStmt:
			checkErrAssign(pass, g, body, st, named)
		case *ast.DeferStmt:
			checkDeferredClose(pass, st, written, checked)
		}
	})
}

// checkErrAssign handles `_ = risky()` and `err := risky()` forms.
func checkErrAssign(pass *Pass, g *flowGraph, body *ast.BlockStmt, as *ast.AssignStmt, named map[types.Object]bool) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !isRiskyCall(pass.Info, call) {
		return
	}
	// The error result is the last one; with a single-result call that is
	// Lhs[0], with (n, error) it is the final Lhs.
	errLhs := as.Lhs[len(as.Lhs)-1]
	id, ok := errLhs.(*ast.Ident)
	if !ok {
		return // assigned into a field/slot: stored is consulted enough
	}
	if id.Name == "_" {
		if inErrBranch(pass.Info, body, as) {
			return
		}
		pass.Reportf(as.Pos(),
			"error from %s is discarded with _; return it, feed the poison/rollback path, or count it in a metric",
			calleeName(call))
		return
	}
	obj := pass.Info.Defs[id]
	if obj == nil {
		obj = pass.Info.Uses[id]
	}
	if obj == nil || named[obj] {
		return // assigning a named result: a naked return still carries it
	}
	if !g.valueReaches(as, obj) {
		pass.Reportf(as.Pos(),
			"error from %s is assigned to %s but never consulted before being overwritten or dropped",
			calleeName(call), id.Name)
	}
}

// checkDeferredClose flags `defer f.Close()` on handles opened for
// writing, unless an explicit checked Close exists in the same frame
// (the defer is then redundant panic-safety, not the only close).
func checkDeferredClose(pass *Pass, st *ast.DeferStmt, written, checked map[types.Object]bool) {
	sel, ok := st.Call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" || len(st.Call.Args) != 0 {
		return
	}
	obj := identObj(pass, sel.X)
	if obj == nil || !written[obj] || checked[obj] {
		return
	}
	pass.Reportf(st.Pos(),
		"deferred Close on %s loses the close error of a written file; close explicitly on the success path and check it",
		obj.Name())
}

// writableHandles collects objects bound from os.Create / os.OpenFile in
// this frame — the handles whose Close error is load-bearing.
func writableHandles(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	handles := make(map[types.Object]bool)
	walkSameFunc(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		f := calleeFunc(pass.Info, call)
		if f == nil || f.Pkg() == nil || f.Pkg().Path() != "os" {
			return
		}
		if f.Name() != "Create" && f.Name() != "OpenFile" {
			return
		}
		if obj := identObj(pass, as.Lhs[0]); obj != nil {
			handles[obj] = true
		}
	})
	return handles
}

// checkedCloses collects objects that have an explicit error-consuming
// Close somewhere in the frame (`err := f.Close()`, `if err := f.Close();
// ...`, `return f.Close()`).
func checkedCloses(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	checked := make(map[types.Object]bool)
	record := func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return
		}
		if obj := identObj(pass, sel.X); obj != nil {
			checked[obj] = true
		}
	}
	walkSameFunc(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					// `_ = f.Close()` is not a check.
					if id, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
					record(call)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					record(call)
				}
			}
		}
	})
	return checked
}

// isRiskyCall reports whether the call's error result carries durability
// information: a method from riskyNames or an os-package function from
// riskyOSFuncs, in either case actually returning an error.
func isRiskyCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return false
	}
	if sig.Recv() != nil {
		return riskyNames[f.Name()]
	}
	return f.Pkg() != nil && f.Pkg().Path() == "os" && riskyOSFuncs[f.Name()]
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type())
}

// inErrBranch reports whether node sits inside an if (or else of an if)
// whose condition consults an error value — the error-path-cleanup shape
// where the original error is already being propagated.
func inErrBranch(info *types.Info, body *ast.BlockStmt, node ast.Node) bool {
	var stack []ast.Node
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if found {
			return false
		}
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if m == node {
			for _, anc := range stack {
				if ifs, ok := anc.(*ast.IfStmt); ok && condConsultsError(info, ifs.Cond) {
					found = true
					break
				}
			}
			return false
		}
		stack = append(stack, m)
		return true
	})
	return found
}

// condConsultsError reports whether any subexpression of cond has type
// error (`err != nil`, `errors.Is(err, ...)`, `w.poisoned != nil`).
func condConsultsError(info *types.Info, cond ast.Expr) bool {
	errType := types.Universe.Lookup("error").Type()
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok && tv.Type != nil && types.Identical(tv.Type, errType) {
				found = true
			}
		}
		return !found
	})
	return found
}

// namedResultObjs collects the function's named result variables; a
// durability error assigned into one rides out on any return.
func namedResultObjs(pass *Pass, ftype *ast.FuncType) map[types.Object]bool {
	named := make(map[types.Object]bool)
	if ftype == nil || ftype.Results == nil {
		return named
	}
	for _, field := range ftype.Results.List {
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				named[obj] = true
			}
		}
	}
	return named
}
