package analysis

import (
	"go/ast"
	"go/types"
)

// StateWrite protects the monotonicity contract behind additions-only
// evaluation: engine values only ever improve, so every write to the
// packed (value, parent) words of engine.State must go through the
// approved update sites — construction, the CASMIN/CASMAX of Table 3 and
// its single-writer twin, the trimming reset, cloning, and the free list
// (a copy into recycled storage; the scribble over a released state). A
// stray direct write (plain or atomic) anywhere else could move a value
// against the algorithm's order and silently invalidate every incremental
// result built on top of it.
var StateWrite = &Analyzer{
	Name: "statewrite",
	Doc:  "flag writes to engine.State value words outside approved update sites",
	Run:  runStateWrite,
}

// stateWriters are the only functions allowed to store into State.words.
var stateWriters = map[string]bool{
	"NewState":      true,
	"TryImprove":    true,
	"improveSeq":    true,
	"Reset":         true,
	"Clone":         true,
	"CloneRecycled": true,
	"Recycle":       true,
}

var stateFields = map[string]bool{"words": true}

// atomicStoreFuncs are the sync/atomic package functions that write
// through their pointer argument (Load* are reads and stay allowed).
var atomicStoreFuncs = map[string]bool{
	"StoreUint64":           true,
	"SwapUint64":            true,
	"AddUint64":             true,
	"CompareAndSwapUint64":  true,
	"StoreUint32":           true,
	"SwapUint32":            true,
	"AddUint32":             true,
	"CompareAndSwapUint32":  true,
	"StoreInt64":            true,
	"SwapInt64":             true,
	"AddInt64":              true,
	"CompareAndSwapInt64":   true,
	"StorePointer":          true,
	"SwapPointer":           true,
	"CompareAndSwapPointer": true,
}

func runStateWrite(pass *Pass) {
	forEachFunc(pass.Files, func(fd *ast.FuncDecl) {
		if stateWriters[fd.Name.Name] {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					if sel, _ := selectsField(pass.Info, lhs, "engine", "State", stateFields); sel != nil {
						pass.Reportf(lhs.Pos(),
							"write to engine.State.words outside approved update sites (monotonic-value contract; use TryImprove/Reset)")
					}
				}
			case *ast.IncDecStmt:
				if sel, _ := selectsField(pass.Info, stmt.X, "engine", "State", stateFields); sel != nil {
					pass.Reportf(stmt.X.Pos(),
						"write to engine.State.words outside approved update sites (monotonic-value contract; use TryImprove/Reset)")
				}
			case *ast.CallExpr:
				if isBuiltin(pass.Info, stmt, "copy") && len(stmt.Args) > 0 {
					if sel, _ := selectsField(pass.Info, stmt.Args[0], "engine", "State", stateFields); sel != nil {
						pass.Reportf(stmt.Args[0].Pos(),
							"copy into engine.State.words outside approved update sites (monotonic-value contract)")
					}
				}
				if f := calleeFunc(pass.Info, stmt); f != nil && isAtomicStore(f) {
					for _, arg := range stmt.Args {
						un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
						if !ok {
							continue
						}
						if sel, _ := selectsField(pass.Info, un.X, "engine", "State", stateFields); sel != nil {
							pass.Reportf(arg.Pos(),
								"atomic write to engine.State.words outside approved update sites (monotonic-value contract; use TryImprove/Reset)")
						}
					}
				}
			}
			return true
		})
	})
}

func isAtomicStore(f *types.Func) bool {
	pkg := f.Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic" &&
		f.Type().(*types.Signature).Recv() == nil && atomicStoreFuncs[f.Name()]
}
