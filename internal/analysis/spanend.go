package analysis

import (
	"go/ast"
	"go/types"
)

// SpanEnd guards the tracing contract from the observability layer: a
// span handed out by StartSpan / StartChild / Fork / StartRemote must be
// ended on every path out of the frame that created it. A span that is
// never ended is invisible — it records no event, its subtree never
// reaches the flight recorder, and a stitched trace shows a hole exactly
// where the interesting (usually failing) path ran. The classic bug is
// an early `return err` added after the span was started, ending the
// function but not the span.
//
// Sanctioned quiet shapes:
//
//   - `defer sp.End()` in the same frame — runs on every path including
//     panics;
//   - ownership transfer: the span is returned, stored into a field or
//     another binding, passed to another call, or captured by a function
//     literal (the receiver is then responsible for ending it);
//   - `sp.End()` reached on every control-flow path from the creation
//     site to the frame's exit (flow-tier all-paths query).
//
// A deliberately leaked span carries
// //cgvet:ignore spanend -- <who ends it and when>.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "spans must be ended on every path: End() all-paths, defer End(), or ownership transfer",
	Run:  runSpanEnd,
}

// spanStartNames are the span-constructor method names of the obs layer.
var spanStartNames = map[string]bool{
	"StartSpan": true, "StartChild": true, "Fork": true, "StartRemote": true,
}

func runSpanEnd(pass *Pass) {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanFrame(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkSpanFrame(pass, lit.Body)
				}
				return true
			})
		}
	}
}

// checkSpanFrame analyzes one function body; nested literals are separate
// frames (their spans, their defers).
func checkSpanFrame(pass *Pass, body *ast.BlockStmt) {
	var g *flowGraph // built lazily: most frames start no spans
	walkSameFunc(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isSpanStart(pass.Info, call) {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			// A span assigned into a field/slot is stored — transferred.
			// `_ = StartSpan(...)` is pointless but ends nothing knowable;
			// the blank binding cannot be ended, so flag it.
			if !ok {
				return
			}
			pass.Reportf(as.Pos(),
				"span from %s is discarded with _ and can never be ended; bind it and call End()",
				calleeName(call))
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if spanDeferredEnd(pass, body, obj) || spanEscapes(pass, body, as, obj) {
			return
		}
		if g == nil {
			g = buildFlow(body, pass.Info)
		}
		if !g.allPathsFromHit(as, func(n ast.Node) bool {
			return nodeCallsEnd(pass, n, obj)
		}) {
			pass.Reportf(as.Pos(),
				"span from %s is not ended on every path; call %s.End() before each return, defer it, or hand the span off (//cgvet:ignore spanend -- <who ends it> if transferred invisibly)",
				calleeName(call), id.Name)
		}
	})
}

// isSpanStart reports whether the call is a span constructor: a method
// named StartSpan/StartChild/Fork/StartRemote returning a single *Span.
func isSpanStart(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !spanStartNames[sel.Sel.Name] {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	ptr, ok := sig.Results().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Span"
}

// spanDeferredEnd reports whether the frame holds `defer sp.End()` for
// obj — the all-paths (and panic-safe) shape.
func spanDeferredEnd(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	walkSameFunc(body, func(n ast.Node) {
		df, ok := n.(*ast.DeferStmt)
		if !ok || found {
			return
		}
		sel, ok := df.Call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return
		}
		if identObj(pass, sel.X) == obj {
			found = true
		}
	})
	return found
}

// spanEscapes reports whether the span's ownership leaves this frame:
// returned, stored into another binding/field/slot, passed as a call
// argument, placed in a composite literal, sent on a channel, or captured
// by a nested function literal (which may end it later). Method calls on
// the span itself (SetAttr, Context, TraceID, ...) are not escapes.
func spanEscapes(pass *Pass, body *ast.BlockStmt, def *ast.AssignStmt, obj types.Object) bool {
	escaped := false
	refersToObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && (pass.Info.Uses[id] == obj || pass.Info.Defs[id] == obj)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if escaped || n == def {
			return !escaped
		}
		switch m := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				if refersToObj(r) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range m.Rhs {
				if refersToObj(r) {
					escaped = true
				}
			}
		case *ast.CallExpr:
			for _, a := range m.Args {
				if refersToObj(a) {
					escaped = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range m.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if refersToObj(e) {
					escaped = true
				}
			}
		case *ast.SendStmt:
			if refersToObj(m.Value) {
				escaped = true
			}
		case *ast.FuncLit:
			// Capture: if the literal references the span at all, it may
			// end it on a schedule this frame cannot see.
			ast.Inspect(m.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					escaped = true
				}
				return !escaped
			})
			return false
		}
		return !escaped
	})
	return escaped
}

// nodeCallsEnd reports whether n contains a call obj.End() outside any
// nested function literal (a closure's End runs on its own schedule, not
// on this path).
func nodeCallsEnd(pass *Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if ok && sel.Sel.Name == "End" && identObj(pass, sel.X) == obj {
			found = true
		}
		return !found
	})
	return found
}

// allPathsFromHit reports whether every path from the node after def to
// the frame's exit passes a node satisfying pred: the forward walk
// refuses to step through satisfying nodes — if exit is still reachable,
// some path misses pred.
func (g *flowGraph) allPathsFromHit(def ast.Node, pred func(ast.Node) bool) bool {
	site, ok := g.findNode(def)
	if !ok {
		return true // unreachable code: stay quiet
	}
	type visit struct {
		block *flowBlock
		idx   int
	}
	seen := make(map[*flowBlock]bool)
	stack := []visit{{site.block, site.idx + 1}}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		blk, i := v.block, v.idx
		hit := false
		for ; i < len(blk.nodes); i++ {
			if pred(blk.nodes[i]) {
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		if blk == g.exit {
			return false
		}
		for _, s := range blk.succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, visit{s, 0})
			}
		}
	}
	return true
}
