package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// rootIdent unwraps parens, indexing, field selection, and pointer
// dereference down to the base identifier of an lvalue expression:
// res.Snapshots[i].X → res. Returns nil when the base is not a plain
// identifier (e.g. a function call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// fieldSel resolves a selector expression to the struct field it selects,
// or nil when it is not a field selection (method value, package member).
func fieldSel(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// namedRecv returns the named type of a selector's receiver, dereferencing
// one level of pointer: (&CSR{}).targets → CSR.
func namedRecv(info *types.Info, sel *ast.SelectorExpr) *types.Named {
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = p.Elem().(*types.Named)
		}
	}
	return n
}

// selectsField reports whether expr (after unwrapping indexing/parens)
// selects the named field of the named struct type defined in a package
// with the given name, returning the selector when it does. This is how
// csrimmutable recognizes graph.CSR's backing arrays without importing
// internal/graph (its fixture defines a look-alike).
func selectsField(info *types.Info, expr ast.Expr, pkgName, typeName string, fields map[string]bool) (*ast.SelectorExpr, *types.Var) {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
			continue
		case *ast.IndexExpr:
			expr = x.X
			continue
		case *ast.SliceExpr:
			expr = x.X
			continue
		case *ast.SelectorExpr:
			f := fieldSel(info, x)
			if f == nil || !fields[f.Name()] {
				return nil, nil
			}
			n := namedRecv(info, x)
			if n == nil || n.Obj().Name() != typeName {
				return nil, nil
			}
			if p := n.Obj().Pkg(); p == nil || p.Name() != pkgName {
				return nil, nil
			}
			return x, f
		default:
			return nil, nil
		}
	}
}

// calleeFunc resolves a call's callee to a *types.Func when the callee is
// a plain identifier or package-qualified selector; nil otherwise.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// calleeName renders the callee for messages ("store.Sync", "run").
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "the callee"
}

// isBuiltin reports whether the call invokes the named builtin (append,
// copy, ...).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// pathSegments splits an import path on '/'.
func pathSegments(path string) []string {
	return strings.Split(path, "/")
}

// hasSegment reports whether the import path contains seg as a whole
// path element ("commongraph/cmd/cgbench" has segment "cmd").
func hasSegment(path, seg string) bool {
	for _, s := range pathSegments(path) {
		if s == seg {
			return true
		}
	}
	return false
}

// internalLeaf returns the path element directly after "internal", or ""
// — the module's layer name ("graph", "core", ...).
func internalLeaf(path string) string {
	segs := pathSegments(path)
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) {
			return segs[i+1]
		}
	}
	return ""
}

// forEachFunc invokes fn for every function declaration in the pass with
// its enclosing function name ("" for package-level variable initializers
// handled elsewhere).
func forEachFunc(files []*ast.File, fn func(decl *ast.FuncDecl)) {
	for _, file := range files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
