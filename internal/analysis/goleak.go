package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoLeak proves (or refuses to believe in) termination of every goroutine
// a library package spawns. A long-lived graph service that leaks one
// goroutine per query or per window slide dies by ten thousand cuts:
// each leaked worker pins its stack, its captured state, and — for the
// engine's pools — a slot of the bounded parallelism budget. The flow
// tier inspects each `go` statement's body:
//
//   - an unconditional `for {}` must have a structural way out (break,
//     return, goto, or a terminating call) — otherwise the goroutine
//     spins or blocks forever once the surrounding work is done;
//   - a channel send/receive outside `select` can block forever unless
//     the channel is provably bounded (created locally with a nonzero
//     buffer — the semaphore pattern) or is a cancellation channel
//     (ctx.Done(), a `done`/`quit`/`stop` chan struct{});
//   - `sync.Cond.Wait` blocks until a peer signals: flagged, because no
//     local proof of a wake-up exists;
//   - `for range ch` blocks until the channel closes: flagged unless ch
//     is a cancellation channel;
//   - a WaitGroup.Done that is neither deferred nor on every exit path
//     under-counts on early returns, hanging the joiner;
//   - a goroutine running a function outside the package cannot be
//     analyzed at all and must justify itself with an ignore.
//
// Sites whose termination argument lives outside the function (a
// documented broadcast protocol, a server closed elsewhere) carry
// //cgvet:ignore goleak -- <the argument>.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "require a provable termination path for every goroutine spawned in library packages",
	Run:  runGoLeak,
}

func runGoLeak(pass *Pass) {
	for _, seg := range printAllowedSegments {
		if hasSegment(pass.Path, seg) {
			return // commands and examples die with the process
		}
	}
	decls := packageFuncBodies(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, gs, decls)
			return true
		})
	}
}

// packageFuncBodies indexes the package's own function declarations by
// object, so `go pkgLocalFunc()` is analyzed through its body.
func packageFuncBodies(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

func checkGoStmt(pass *Pass, gs *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) {
	var body *ast.BlockStmt
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if f := calleeFunc(pass.Info, gs.Call); f != nil {
			if fd, ok := decls[f]; ok {
				body = fd.Body
				break
			}
			pass.Reportf(gs.Pos(),
				"goroutine runs %s.%s, whose body this package cannot analyze; prove termination with //cgvet:ignore goleak -- <why it ends>",
				pkgName(f), f.Name())
			return
		}
		pass.Reportf(gs.Pos(),
			"goroutine target is not analyzable (dynamic call); prove termination with //cgvet:ignore goleak -- <why it ends>")
		return
	}
	g := buildFlow(body, pass.Info)
	checkGoroutineBody(pass, gs, body, g)
}

// checkGoroutineBody applies the hazard rules to one goroutine body.
// Diagnostics anchor on the hazard, not the spawn, so fixes and ignores
// land where the blocking happens.
func checkGoroutineBody(pass *Pass, gs *ast.GoStmt, body *ast.BlockStmt, g *flowGraph) {
	bounded := boundedChans(pass, body, gs)
	walkSameFunc(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ForStmt:
			if st.Cond == nil && !g.loopExits[st] {
				pass.Reportf(st.Pos(),
					"goroutine loops forever: `for {}` with no break, return, or terminating call on any path")
			}
		case *ast.RangeStmt:
			if isChanType(pass.Info, st.X) && !isCancellationChan(pass.Info, st.X) {
				pass.Reportf(st.Pos(),
					"goroutine ranges over a channel and blocks until it is closed; prove the producer closes it or select on a cancellation channel")
			}
		case *ast.SendStmt:
			if withinSelect(body, st.Pos()) {
				return
			}
			if !bounded[chanObj(pass.Info, st.Chan)] {
				pass.Reportf(st.Pos(),
					"goroutine sends on an unbounded channel outside select; the send blocks forever if the receiver is gone")
			}
		case *ast.UnaryExpr:
			if st.Op != token.ARROW || withinSelect(body, st.Pos()) {
				return
			}
			if isCancellationChan(pass.Info, st.X) {
				return // blocking until cancellation IS the termination path
			}
			if !bounded[chanObj(pass.Info, st.X)] {
				pass.Reportf(st.Pos(),
					"goroutine receives from an unbounded channel outside select; the receive blocks forever if the sender is gone")
			}
		case *ast.CallExpr:
			if isMethodCall(pass.Info, st, "sync", "Cond", "Wait") {
				pass.Reportf(st.Pos(),
					"goroutine calls sync.Cond.Wait, which blocks until a peer signals; document the wake-up protocol with //cgvet:ignore goleak -- <who broadcasts>")
			}
		}
	})
	checkWaitGroupDone(pass, body, g)
}

// checkWaitGroupDone verifies that a goroutine counting itself on a
// WaitGroup cannot exit without Done: either the Done is deferred (covers
// panic unwinds too) or every structural exit path reaches one.
func checkWaitGroupDone(pass *Pass, body *ast.BlockStmt, g *flowGraph) {
	var doneCalls []*ast.CallExpr
	deferred := false
	walkSameFunc(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.DeferStmt:
			if isWaitGroupDone(pass.Info, st.Call) {
				deferred = true
			}
			// A deferred closure calling Done counts too.
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok && isWaitGroupDone(pass.Info, c) {
						deferred = true
					}
					return true
				})
			}
		case *ast.CallExpr:
			if isWaitGroupDone(pass.Info, st) {
				doneCalls = append(doneCalls, st)
			}
		}
	})
	if deferred || len(doneCalls) == 0 {
		return
	}
	covered := g.allPathsHit(func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok && isWaitGroupDone(pass.Info, c) {
				found = true
			}
			return !found
		})
		return found
	})
	if !covered {
		pass.Reportf(doneCalls[0].Pos(),
			"WaitGroup.Done is not reached on every exit path of this goroutine; an early return under-counts and hangs the joiner — defer it")
	} else {
		pass.Reportf(doneCalls[0].Pos(),
			"WaitGroup.Done is called on every path but not deferred; a panic unwind skips it and hangs the joiner — defer it")
	}
}

// boundedChans collects channel objects provably bounded at the spawn
// site: created with make(chan T, n>0) either inside the goroutine body
// or anywhere in the file before use (the semaphore pattern allocates in
// the spawning function).
func boundedChans(pass *Pass, body *ast.BlockStmt, gs *ast.GoStmt) map[types.Object]bool {
	bounded := make(map[types.Object]bool)
	record := func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(pass.Info, call, "make") || len(call.Args) != 2 {
			return
		}
		if _, ok := pass.Info.Types[call.Args[0]].Type.Underlying().(*types.Chan); !ok {
			return
		}
		// An explicit capacity expression counts as bounded; semaphore
		// capacities are often variables (min(par, n)) whose positivity
		// the surrounding code guarantees.
		for _, lhs := range as.Lhs {
			if obj := identObj(pass, lhs); obj != nil {
				bounded[obj] = true
			}
		}
	}
	for _, file := range pass.Files {
		if file.Pos() <= gs.Pos() && gs.Pos() <= file.End() {
			ast.Inspect(file, func(n ast.Node) bool {
				record(n)
				return true
			})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		record(n)
		return true
	})
	return bounded
}

// withinSelect reports whether pos falls inside a select statement of
// body — channel operations there are guarded alternatives, not
// unconditional blocks.
func withinSelect(body *ast.BlockStmt, pos token.Pos) bool {
	inside := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok && sel.Pos() <= pos && pos <= sel.End() {
			inside = true
		}
		return !inside
	})
	return inside
}

// chanObj resolves a channel expression to its root object (for the
// bounded-channel lookup); nil when the channel is not a plain variable.
func chanObj(info *types.Info, e ast.Expr) types.Object {
	id := rootIdent(ast.Unparen(e))
	if id == nil {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// cancellationNames are channel identifiers read as "this tells me to
// stop": receiving from one is a termination path, not a leak.
var cancellationNames = map[string]bool{"done": true, "quit": true, "stop": true, "closing": true, "closed": true, "cancel": true}

// isCancellationChan recognizes ctx.Done() results and stop-channel
// variables by type and name.
func isCancellationChan(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if named, ok := info.Types[sel.X].Type.(*types.Named); ok {
				if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context" {
					return true
				}
			}
			if iface, ok := info.Types[sel.X].Type.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				// context.Context is an interface; method-set match by name.
				for i := 0; i < iface.NumMethods(); i++ {
					if iface.Method(i).Name() == "Deadline" {
						return true
					}
				}
			}
		}
	}
	if id, ok := e.(*ast.Ident); ok && cancellationNames[strings.ToLower(id.Name)] {
		if ch, ok := info.Types[e].Type.Underlying().(*types.Chan); ok {
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true
			}
		}
	}
	return false
}

// isChanType reports whether e has channel type.
func isChanType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// isWaitGroupDone reports whether call is (*sync.WaitGroup).Done().
func isWaitGroupDone(info *types.Info, call *ast.CallExpr) bool {
	return isMethodCall(info, call, "sync", "WaitGroup", "Done")
}

// isMethodCall matches a call to pkg.Type's named method by the static
// type of the receiver expression.
func isMethodCall(info *types.Info, call *ast.CallExpr, pkg, typ, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == typ && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkg
}

// pkgName formats f's package for messages ("http", "commongraph/internal/store").
func pkgName(f *types.Func) string {
	if f.Pkg() == nil {
		return "?"
	}
	return f.Pkg().Name()
}
