// Package kernelalloc turns the ROADMAP's zero-allocation-steady-state
// goal into an enforced boundary: inside a hot kernel loop (one that
// records per-iteration progress via RunStats.Record or Options.Tick in
// internal/algo), heap allocations are flagged — make/new calls,
// &composite literals, closures (a func literal allocates its capture
// record every time it's evaluated), and map writes (bucket growth).
//
// Paper grounding: §4.2/§4.5 price push-vs-pull as a synchronization
// and memory-traffic trade; a kernel that mallocs per iteration drags
// the allocator and GC into that budget and makes per-edge timings
// noise-bound. Deliberate per-round allocation (e.g. a
// frontier rebuilt per level because sizing is data-dependent) is
// annotated `//pushpull:allow alloc <why>` — the alias keeps the escape
// hatch short.
package kernelalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pushpull/internal/analysis/framework"
)

// Analyzer is the kernelalloc checker.
var Analyzer = &framework.Analyzer{
	Name:    "kernelalloc",
	Aliases: []string{"alloc"},
	Doc: "flags per-iteration heap allocations (make, new, &composite, closures, " +
		"map writes) inside hot kernel loops in internal/algo",
	Run: run,
}

func run(pass *framework.Pass) error {
	if !strings.Contains(pass.Pkg.Path(), "internal/algo") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			findHotLoops(pass, fd.Body)
		}
	}
	return nil
}

// findHotLoops descends to the outermost loops that record per-iteration
// progress and scans each one's body for allocations.
func findHotLoops(pass *framework.Pass, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch loop := n.(type) {
		case *ast.ForStmt:
			if recordsProgress(loop) {
				scanAllocs(pass, loop.Body)
				if loop.Cond != nil {
					scanAllocs(pass, loop.Cond)
				}
				if loop.Post != nil {
					scanAllocs(pass, loop.Post)
				}
				return false
			}
		case *ast.RangeStmt:
			if recordsProgress(loop) {
				scanAllocs(pass, loop.Body)
				return false
			}
		}
		return true
	})
}

// recordsProgress reports whether the loop's subtree calls a method
// named Record or Tick — the per-iteration telemetry every kernel round
// loop carries.
func recordsProgress(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Record" || sel.Sel.Name == "Tick" {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// scanAllocs reports each allocation site in the hot region. A func
// literal is flagged once at its position and its body is not descended:
// the closure allocation is the per-iteration cost, and what runs inside
// it belongs to the closure's own loops.
func scanAllocs(pass *framework.Pass, n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.FuncLit:
			pass.Reportf(e.Pos(),
				"closure allocated per iteration in a hot kernel loop (the capture record escapes); hoist the func literal above the loop or annotate //pushpull:allow alloc <why>")
			return false
		case *ast.CallExpr:
			if name := builtinName(pass.Info, e.Fun); name == "make" || name == "new" {
				pass.Reportf(e.Pos(),
					"%s allocates per iteration in a hot kernel loop; hoist the buffer out of the loop (reuse run-scoped storage) or annotate //pushpull:allow alloc <why>", name)
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					pass.Reportf(e.Pos(),
						"&composite literal escapes to the heap per iteration in a hot kernel loop; hoist it or annotate //pushpull:allow alloc <why>")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				if _, isMap := pass.Info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
					pass.Reportf(lhs.Pos(),
						"map write in a hot kernel loop can grow buckets (allocation + rehash); use a preallocated slice keyed by vertex id or annotate //pushpull:allow alloc <why>")
				}
			}
		}
		return true
	})
}

// builtinName returns the name of the builtin function e denotes, or "".
func builtinName(info *types.Info, e ast.Expr) string {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name
	}
	return ""
}
