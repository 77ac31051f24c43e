package analysis

// The flow tier: a per-function control-flow graph with just enough
// def-use reasoning for the semantic analyzers (goleak, errflow,
// spanend). The module is dependency-free by design, so this
// is a self-contained SSA-lite built on go/ast + go/types rather than
// golang.org/x/tools/go/ssa: basic blocks hold the function's statements
// (and branch guards) in execution order, edges follow every structural
// construct, and value questions ("does this error assignment reach a
// read before it is overwritten?") are answered by walking the graph with
// writes acting as kills — a reaching-definitions query over the one
// definition the caller cares about.
//
// Approximations, all deliberate and conservative for our analyzers:
//
//   - goto edges go straight to the synthetic exit (treating the jump as
//     "leaves every enclosing loop"), which can only under-report loops.
//   - Nested function literals are opaque: their bodies are separate
//     frames, but an object referenced inside one counts as *used* for
//     value-reach purposes (a closure may run later).
//   - panic/os.Exit/runtime.Goexit/log.Fatal terminate the block like a
//     return.

import (
	"go/ast"
	"go/types"
)

// flowBlock is one basic block: nodes execute in order, then control
// transfers to one of succs (none for the synthetic exit).
type flowBlock struct {
	nodes []ast.Node
	succs []*flowBlock
}

// flowGraph is the CFG of a single function body.
type flowGraph struct {
	entry  *flowBlock
	exit   *flowBlock
	blocks []*flowBlock
	// loopExits records, per for/range statement, whether some statement
	// inside it structurally leaves the loop (break bound to it, labeled
	// break of an enclosing loop, return, goto, or a terminating call).
	// A `for {}` absent from this map spins forever once entered.
	loopExits map[ast.Stmt]bool
	info      *types.Info
}

// flowBuilder threads the construction state: the current (possibly
// unreachable) block, and the stacks break/continue resolve against.
type flowBuilder struct {
	g   *flowGraph
	cur *flowBlock // nil while statements are unreachable

	// breakables is the innermost-last stack of statements an unlabeled
	// break can bind to; loops additionally accept continue.
	breakables []breakFrame
	labels     map[string]ast.Stmt // label -> labeled for/range/switch/select
}

type breakFrame struct {
	stmt  ast.Stmt
	after *flowBlock // where break jumps
	head  *flowBlock // where continue jumps (loops only)
	loop  bool
}

// buildFlow constructs the CFG for one function body.
func buildFlow(body *ast.BlockStmt, info *types.Info) *flowGraph {
	g := &flowGraph{loopExits: make(map[ast.Stmt]bool), info: info}
	b := &flowBuilder{g: g, labels: make(map[string]ast.Stmt)}
	g.entry = b.newBlock()
	g.exit = &flowBlock{}
	g.blocks = append(g.blocks, g.exit)
	b.cur = g.entry
	b.stmts(body.List)
	if b.cur != nil { // fall off the end: implicit return
		b.edge(b.cur, g.exit)
	}
	return g
}

func (b *flowBuilder) newBlock() *flowBlock {
	blk := &flowBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *flowBuilder) edge(from, to *flowBlock) {
	from.succs = append(from.succs, to)
}

// add records a node in the current block (no-op while unreachable).
func (b *flowBuilder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

// markLoopExits flags every loop on the breakables stack at or above
// depth as having a structural way out.
func (b *flowBuilder) markLoopExits(fromDepth int) {
	for i := fromDepth; i < len(b.breakables); i++ {
		if b.breakables[i].loop {
			b.g.loopExits[b.breakables[i].stmt] = true
		}
	}
}

func (b *flowBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *flowBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Unreachable code still needs label collection for goto targets,
		// but nothing here can execute; skip it wholesale.
		return
	}
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmts(st.List)

	case *ast.IfStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Cond)
		condBlk := b.cur
		after := b.newBlock()
		b.cur = b.newBlock()
		b.edge(condBlk, b.cur)
		b.stmt(st.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if st.Else != nil {
			b.cur = b.newBlock()
			b.edge(condBlk, b.cur)
			b.stmt(st.Else)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		} else {
			b.edge(condBlk, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		after := b.newBlock()
		b.cur = head
		if st.Cond != nil {
			b.add(st.Cond)
			b.edge(head, after)
			b.g.loopExits[st] = true // condition can become false
		}
		bodyBlk := b.newBlock()
		b.edge(head, bodyBlk)
		b.cur = bodyBlk
		b.breakables = append(b.breakables, breakFrame{stmt: st, after: after, head: head, loop: true})
		b.stmt(st.Body)
		b.breakables = b.breakables[:len(b.breakables)-1]
		if b.cur != nil {
			if st.Post != nil {
				b.add(st.Post)
			}
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		b.add(st.X)
		head := b.newBlock()
		b.edge(b.cur, head)
		after := b.newBlock()
		b.edge(head, after) // ranges end (channel ranges end on close; goleak handles blocking separately)
		b.g.loopExits[st] = true
		bodyBlk := b.newBlock()
		b.edge(head, bodyBlk)
		b.cur = bodyBlk
		b.breakables = append(b.breakables, breakFrame{stmt: st, after: after, head: head, loop: true})
		b.stmt(st.Body)
		b.breakables = b.breakables[:len(b.breakables)-1]
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.branching(st)

	case *ast.LabeledStmt:
		b.labels[st.Label.Name] = st.Stmt
		b.stmt(st.Stmt)

	case *ast.ReturnStmt:
		b.add(st)
		b.markLoopExits(0)
		b.edge(b.cur, b.g.exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.add(st)
		b.branch(st)

	case *ast.ExprStmt:
		b.add(st)
		if call, ok := st.X.(*ast.CallExpr); ok && b.terminates(call) {
			b.markLoopExits(0)
			b.edge(b.cur, b.g.exit)
			b.cur = nil
		}

	default:
		// Assignments, declarations, defers, go statements, sends, inc/dec:
		// straight-line nodes. Defer and go bodies are separate frames.
		b.add(s)
	}
}

// branching lowers switch/type-switch/select: every clause body is an
// alternative between the guard block and the join.
func (b *flowBuilder) branching(s ast.Stmt) {
	var clauses []ast.Stmt
	exhaustive := false // true when some clause always runs (default present)
	isSelect := false
	switch st := s.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		if st.Tag != nil {
			b.add(st.Tag)
		}
		clauses = st.Body.List
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Assign)
		clauses = st.Body.List
	case *ast.SelectStmt:
		clauses = st.Body.List
		// A select with no default blocks until a case fires; control
		// leaves only through a case, so there is no skip edge.
		isSelect = true
	}
	guard := b.cur
	after := b.newBlock()
	b.breakables = append(b.breakables, breakFrame{stmt: s, after: after})
	for _, c := range clauses {
		b.cur = b.newBlock()
		b.edge(guard, b.cur)
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				b.add(e)
			}
			if cc.List == nil {
				exhaustive = true
			}
			b.stmts(cc.Body)
		case *ast.CommClause:
			if cc.Comm != nil {
				b.add(cc.Comm)
			} else {
				exhaustive = true
			}
			b.stmts(cc.Body)
		}
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.breakables = b.breakables[:len(b.breakables)-1]
	if !exhaustive && !isSelect {
		b.edge(guard, after) // no case matched
	}
	b.cur = after
}

// branch lowers break/continue/goto/fallthrough.
func (b *flowBuilder) branch(st *ast.BranchStmt) {
	switch st.Tok.String() {
	case "break":
		depth := len(b.breakables) - 1
		if st.Label != nil {
			target := b.labels[st.Label.Name]
			for i := range b.breakables {
				if b.breakables[i].stmt == target {
					depth = i
					break
				}
			}
		}
		if depth >= 0 && depth < len(b.breakables) {
			b.markLoopExits(depth)
			b.edge(b.cur, b.breakables[depth].after)
		} else {
			b.edge(b.cur, b.g.exit)
		}
		b.cur = nil
	case "continue":
		depth := -1
		for i := len(b.breakables) - 1; i >= 0; i-- {
			if b.breakables[i].loop && (st.Label == nil || b.breakables[i].stmt == b.labels[st.Label.Name]) {
				depth = i
				break
			}
		}
		if depth >= 0 {
			b.edge(b.cur, b.breakables[depth].head)
		} else {
			b.edge(b.cur, b.g.exit)
		}
		b.cur = nil
	case "goto":
		// Conservative: a goto leaves every enclosing loop.
		b.markLoopExits(0)
		b.edge(b.cur, b.g.exit)
		b.cur = nil
	case "fallthrough":
		// The next clause's block is not linked here; treating fallthrough
		// as a join edge keeps reachability sound for our queries.
	}
}

// terminates reports whether the call never returns: the builtin panic
// and the well-known process/goroutine terminators.
func (b *flowBuilder) terminates(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			_, isBuiltin := b.g.info.Uses[fun].(*types.Builtin)
			return isBuiltin
		}
	case *ast.SelectorExpr:
		f, ok := b.g.info.Uses[fun.Sel].(*types.Func)
		if !ok || f.Pkg() == nil {
			return false
		}
		switch f.Pkg().Path() + "." + f.Name() {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// --- queries -------------------------------------------------------------

// nodeSite locates a recorded node inside the graph.
type nodeSite struct {
	block *flowBlock
	idx   int
}

// findNode locates the block slot holding n (or containing n's position,
// when n is nested inside a recorded statement).
func (g *flowGraph) findNode(n ast.Node) (nodeSite, bool) {
	for _, blk := range g.blocks {
		for i, cand := range blk.nodes {
			if cand == n {
				return nodeSite{blk, i}, true
			}
		}
	}
	// Fall back to position containment (n nested in a recorded stmt).
	for _, blk := range g.blocks {
		for i, cand := range blk.nodes {
			if cand.Pos() <= n.Pos() && n.End() <= cand.End() {
				return nodeSite{blk, i}, true
			}
		}
	}
	return nodeSite{}, false
}

// valueReaches reports whether the value defined for obj at def is ever
// read: it walks forward from def, and a node that rewrites obj without
// reading it first kills the path. Reads inside nested function literals
// count (closures may run later); the defining node's own later parts
// (e.g. an if-init's condition) are separate nodes and are seen normally.
func (g *flowGraph) valueReaches(def ast.Node, obj types.Object) bool {
	site, ok := g.findNode(def)
	if !ok {
		return true // not in the graph (unreachable code): stay quiet
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
		killed := false
		for ; i < len(blk.nodes); i++ {
			n := blk.nodes[i]
			if g.readsObj(n, obj) {
				return true
			}
			if writesObj(g.info, n, obj) {
				killed = true
				break
			}
		}
		if killed {
			continue
		}
		for _, s := range blk.succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, visit{s, 0})
			}
		}
	}
	return false
}

// readsObj reports whether n reads obj: any identifier resolving to obj
// that is not purely an assignment target. Nested function literals are
// scanned too — capturing the value is a read.
func (g *flowGraph) readsObj(n ast.Node, obj types.Object) bool {
	writes := writeTargets(n)
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && g.info.Uses[id] == obj && !writes[id] {
			found = true
		}
		return !found
	})
	return found
}

// writesObj reports whether n assigns obj as a plain target (the kill in
// the reaching-definitions walk).
func writesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if info.Uses[id] == obj || info.Defs[id] == obj {
				return true
			}
		}
	}
	return false
}

// writeTargets collects the plain identifiers n assigns to (so readsObj
// does not mistake `err = ...` for a read of err).
func writeTargets(n ast.Node) map[*ast.Ident]bool {
	targets := make(map[*ast.Ident]bool)
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return targets
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			targets[id] = true
		}
	}
	return targets
}

// allPathsHit reports whether every entry→exit path passes a node
// satisfying pred before reaching exit: BFS that refuses to step through
// satisfying nodes — if exit is still reachable, some path misses pred.
func (g *flowGraph) allPathsHit(pred func(ast.Node) bool) bool {
	seen := map[*flowBlock]bool{g.entry: true}
	stack := []*flowBlock{g.entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		hit := false
		for _, n := range blk.nodes {
			if pred(n) {
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
				stack = append(stack, s)
			}
		}
	}
	return true
}
