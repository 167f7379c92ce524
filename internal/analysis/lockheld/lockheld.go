// Package lockheld flags sync.Mutex/sync.RWMutex critical sections that
// reach a blocking operation — network or file I/O, channel operations,
// http.Client calls, WaitGroup waits — in the engine, store, serve and
// cluster layers. A lock held across a slow worker call stalls
// every contender behind one straggler, which is exactly the
// head-of-line blocking a serving stack must avoid.
//
// The analysis is intra-procedural per critical section with a
// same-package transitive summary: a package function whose body reaches
// a blocking primitive is itself blocking, so router.putGraph holding
// mutMu across fanPut (which fans HTTP PUTs over the fleet) is caught
// even though the I/O is two calls down. Cross-package, a small
// name-based set covers the repo's known slow calls (WriteWorkload /
// ReadWorkload serialization, Engine mutations, GraphStore interface
// dispatch).
//
// Deliberate serialization — the engine's mutation mutex intentionally
// spans store write-through so restores can't interleave — is annotated
// `//pushpull:allow lockheld <why>` at the flagged call.
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pushpull/internal/analysis/framework"
)

// Analyzer is the lockheld checker.
var Analyzer = &framework.Analyzer{
	Name: "lockheld",
	Doc: "flags sync.Mutex/RWMutex held across blocking operations (I/O, channel " +
		"ops, HTTP calls) in the engine, store, serve and cluster layers",
	Run: run,
}

func inScope(path string) bool {
	base := framework.PkgPathBase(path)
	return base == "pushpull" ||
		strings.HasPrefix(base, "pushpull/cluster") ||
		strings.HasPrefix(base, "pushpull/serve")
}

// blockingFuncs maps (package path, function name) of package-level
// functions that block.
var blockingFuncs = map[[2]string]bool{
	{"os", "Create"}:       true,
	{"os", "CreateTemp"}:   true,
	{"os", "Open"}:         true,
	{"os", "OpenFile"}:     true,
	{"os", "ReadFile"}:     true,
	{"os", "WriteFile"}:    true,
	{"os", "MkdirAll"}:     true,
	{"os", "ReadDir"}:      true,
	{"io", "ReadAll"}:      true,
	{"io", "Copy"}:         true,
	{"io", "CopyN"}:        true,
	{"net", "Dial"}:        true,
	{"net", "DialTimeout"}: true,
	{"net", "Listen"}:      true,
	{"net/http", "Get"}:    true,
	{"net/http", "Post"}:   true,
	{"net/http", "Head"}:   true,
	{"time", "Sleep"}:      true,
}

// blockingMethods maps (receiver type, method name) of methods that
// block. Receiver type is "pkgpath.TypeName".
var blockingMethods = map[[2]string]bool{
	{"net/http.Client", "Do"}:       true,
	{"net/http.Client", "Get"}:      true,
	{"net/http.Client", "Post"}:     true,
	{"net/http.Client", "PostForm"}: true,
	{"net/http.Client", "Head"}:     true,
	{"sync.WaitGroup", "Wait"}:      true,
	{"sync.Cond", "Wait"}:           true,
	{"os.File", "Sync"}:             true,
}

// blockingByName lists repo-specific calls that are slow regardless of
// receiver package: graph (de)serialization and the Engine mutations
// that write through to the GraphStore. These cross package boundaries,
// where the transitive summary can't see.
var blockingByName = map[string]bool{
	"WriteWorkload":    true,
	"ReadWorkload":     true,
	"RegisterWorkload": true,
	"DropWorkload":     true,
	"AttachStore":      true,
}

func run(pass *framework.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	summary := buildSummary(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if block, ok := n.(*ast.BlockStmt); ok {
				checkBlock(pass, summary, block)
			}
			return true
		})
	}
	return nil
}

// checkBlock scans one statement list for Lock() calls and walks each
// critical section until its matching Unlock.
func checkBlock(pass *framework.Pass, summary map[*types.Func]bool, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		recv, rlock, ok := lockCall(pass.Info, stmt)
		if !ok {
			continue
		}
		lockPos := stmt.Pos()
		rest := block.List[i+1:]
		// `mu.Lock(); defer mu.Unlock()` → the section runs to the end of
		// the block. Otherwise it runs until the first statement whose
		// subtree contains the matching Unlock (that statement itself is
		// not scanned — conservatively, code after an inline Unlock on
		// the same statement list line is out of the section).
		deferred := false
		if len(rest) > 0 {
			if ds, ok := rest[0].(*ast.DeferStmt); ok && isUnlockExpr(pass.Info, ds.Call, recv, rlock) {
				deferred = true
				rest = rest[1:]
			}
		}
		for _, s := range rest {
			if !deferred && containsUnlock(pass.Info, s, recv, rlock) {
				break
			}
			reportBlocking(pass, summary, s, recv, lockPos)
		}
	}
}

// lockCall matches `x.Lock()` / `x.RLock()` on a sync mutex, returning
// the canonical receiver string and whether it was a read lock.
func lockCall(info *types.Info, stmt ast.Stmt) (recv string, rlock, ok bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return "", false, false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" {
		return "", false, false
	}
	if !isSyncMutex(info.TypeOf(sel.X)) {
		return "", false, false
	}
	return types.ExprString(sel.X), name == "RLock", true
}

// isUnlockExpr matches `recv.Unlock()` / `recv.RUnlock()` for the same
// receiver expression.
func isUnlockExpr(info *types.Info, call *ast.CallExpr, recv string, rlock bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	want := "Unlock"
	if rlock {
		want = "RUnlock"
	}
	return sel.Sel.Name == want && isSyncMutex(info.TypeOf(sel.X)) && types.ExprString(sel.X) == recv
}

// containsUnlock reports whether stmt's subtree calls the matching
// unlock.
func containsUnlock(info *types.Info, stmt ast.Stmt, recv string, rlock bool) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isUnlockExpr(info, call, recv, rlock) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isSyncMutex reports whether t (possibly a pointer) is sync.Mutex or
// sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// reportBlocking flags every blocking operation in stmt's subtree.
// Bodies of nested func literals, go statements and defers are skipped:
// they don't execute while the lock is held (or, for defer-after-unlock,
// execute outside the section).
func reportBlocking(pass *framework.Pass, summary map[*types.Func]bool, stmt ast.Stmt, recv string, lockPos token.Pos) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			pass.Reportf(e.Pos(), "%s held across a channel send (lock acquired at %s); a full channel stalls every contender — move the send outside the critical section or annotate //pushpull:allow lockheld <why>",
				recv, pass.Fset.Position(lockPos))
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				pass.Reportf(e.Pos(), "%s held across a channel receive (lock acquired at %s); move the receive outside the critical section or annotate //pushpull:allow lockheld <why>",
					recv, pass.Fset.Position(lockPos))
			}
		case *ast.SelectStmt:
			if !selectHasDefault(e) {
				pass.Reportf(e.Pos(), "%s held across a blocking select (lock acquired at %s); move the select outside the critical section or annotate //pushpull:allow lockheld <why>",
					recv, pass.Fset.Position(lockPos))
			}
			return false
		case *ast.CallExpr:
			if desc := blockingCall(pass.Info, summary, e); desc != "" {
				pass.Reportf(e.Pos(), "%s held across blocking call %s (lock acquired at %s); do the slow work outside the critical section or annotate //pushpull:allow lockheld <why>",
					recv, desc, pass.Fset.Position(lockPos))
			}
		}
		return true
	})
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies one call; returns a description or "".
func blockingCall(info *types.Info, summary map[*types.Func]bool, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recvType := sig.Recv().Type()
		if p, ok := recvType.(*types.Pointer); ok {
			recvType = p.Elem()
		}
		if named, ok := recvType.(*types.Named); ok {
			obj := named.Obj()
			tn := obj.Name()
			if obj.Pkg() != nil {
				if blockingMethods[[2]string{obj.Pkg().Path() + "." + tn, name}] {
					return fmtCall(obj.Pkg().Name()+"."+tn, name)
				}
			}
			// Interface dispatch through the GraphStore contract is disk
			// or worse on the other side.
			if _, isIface := named.Underlying().(*types.Interface); isIface && tn == "GraphStore" {
				return fmtCall(tn, name)
			}
		}
		if blockingByName[name] {
			return name
		}
		if summary[fn] {
			return name + " (blocks transitively)"
		}
		return ""
	}
	if fn.Pkg() != nil && blockingFuncs[[2]string{fn.Pkg().Path(), name}] {
		return fn.Pkg().Name() + "." + name
	}
	if blockingByName[name] {
		return name
	}
	if summary[fn] {
		return name + " (blocks transitively)"
	}
	return ""
}

func fmtCall(recv, name string) string { return recv + "." + name }

// calleeFunc resolves the called function object, if static.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// buildSummary computes the same-package transitive blocking set: a
// fixpoint over "this function's body (outside go statements and func
// literals) reaches a blocking primitive or calls a blocking
// same-package function".
func buildSummary(pass *framework.Pass) map[*types.Func]bool {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	blocking := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if blocking[fn] {
				continue
			}
			if bodyBlocks(pass.Info, blocking, fd.Body) {
				blocking[fn] = true
				changed = true
			}
		}
	}
	return blocking
}

// bodyBlocks reports whether body reaches a blocking primitive or a
// known-blocking function, skipping go statements and func literal
// bodies (they run on other goroutines / later).
func bodyBlocks(info *types.Info, blocking map[*types.Func]bool, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(e) {
				found = true
			}
			return false
		case *ast.CallExpr:
			if blockingCall(info, blocking, e) != "" {
				found = true
			}
		}
		return !found
	})
	return found
}
