// Package capshonesty cross-checks the registry's declared capabilities
// against what the code actually does:
//
//  1. A registry entry whose Caps literal declares Probes: true must
//     dispatch to a profiled kernel — its run function (or the function
//     the run element calls to build one) must reference a *Profiled
//     kernel or the Counter machinery. A probes claim without a
//     probe path silently returns un-instrumented results, which PR 2
//     spent a whole release stamping out.
//  2. Typed sentinel errors (ErrNeedsWeights, ErrOverloaded, …) passed
//     to fmt.Errorf must use the %w verb. With %v/%s the sentinel's
//     identity is flattened into text and errors.Is stops working across
//     the serve/cluster boundary, where HTTP status mapping depends on
//     it.
package capshonesty

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"pushpull/internal/analysis/framework"
)

// Analyzer is the capshonesty checker.
var Analyzer = &framework.Analyzer{
	Name: "capshonesty",
	Doc: "Caps{Probes: true} registry entries must dispatch to a profiled kernel; " +
		"sentinel errors must be wrapped with %w",
	Run: run,
}

func run(pass *framework.Pass) error {
	varInit := collectVarInits(pass)
	funcDecls := collectFuncDecls(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CompositeLit:
				checkRegistryEntry(pass, varInit, funcDecls, e)
			case *ast.CallExpr:
				checkErrorfWrap(pass, e)
			}
			return true
		})
	}
	return nil
}

// --- check 1: Caps{Probes: true} ⇒ profiled dispatch ---

// checkRegistryEntry matches composite literals of a struct type that
// carries both a Caps-typed field and a func-typed field (the registry's
// builtin shape, keyed or positional).
func checkRegistryEntry(pass *framework.Pass, varInit map[*types.Var]ast.Expr, funcDecls map[*types.Func]*ast.FuncDecl, lit *ast.CompositeLit) {
	t := pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	capsIdx, runIdx := -1, -1
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if isCapsType(ft) && capsIdx < 0 {
			capsIdx = i
		}
		if _, isFunc := ft.Underlying().(*types.Signature); isFunc && runIdx < 0 {
			runIdx = i
		}
	}
	if capsIdx < 0 || runIdx < 0 {
		return
	}
	capsExpr := fieldValue(st, lit, capsIdx)
	runExpr := fieldValue(st, lit, runIdx)
	if capsExpr == nil || runExpr == nil {
		return
	}
	if !probesTrue(pass, varInit, capsExpr) {
		return
	}
	if body := resolveFuncBody(pass, varInit, funcDecls, runExpr); body != nil && !mentionsProfiled(body) {
		pass.Reportf(capsExpr.Pos(),
			"registry entry declares Caps{Probes: true} but its run function never dispatches to a profiled kernel (no *Profiled / Counter reference); wire the probe path or drop the claim")
	}
}

// isCapsType reports whether t is a named struct type called Caps with a
// bool field Probes (matched structurally so fixtures don't need to
// import the root package).
func isCapsType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Caps" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "Probes" {
			_, isBool := st.Field(i).Type().Underlying().(*types.Basic)
			return isBool
		}
	}
	return false
}

// fieldValue extracts the value for struct field index idx from a keyed
// or positional composite literal.
func fieldValue(st *types.Struct, lit *ast.CompositeLit, idx int) ast.Expr {
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == st.Field(idx).Name() {
				return kv.Value
			}
			continue
		}
		if i == idx {
			return elt
		}
	}
	return nil
}

// probesTrue resolves capsExpr (possibly through a local/package var
// initializer) to a Caps literal and reports whether Probes is true.
func probesTrue(pass *framework.Pass, varInit map[*types.Var]ast.Expr, capsExpr ast.Expr) bool {
	lit, ok := resolveLit(pass, varInit, capsExpr)
	if !ok {
		return false
	}
	st, ok := pass.Info.TypeOf(lit).Underlying().(*types.Struct)
	if !ok {
		return false
	}
	probesIdx := -1
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "Probes" {
			probesIdx = i
			break
		}
	}
	if probesIdx < 0 {
		return false
	}
	v := fieldValue(st, lit, probesIdx)
	if v == nil {
		return false
	}
	tv, ok := pass.Info.Types[v]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false
	}
	return constant.BoolVal(tv.Value)
}

// resolveLit follows at most one level of identifier indirection to a
// composite literal.
func resolveLit(pass *framework.Pass, varInit map[*types.Var]ast.Expr, e ast.Expr) (*ast.CompositeLit, bool) {
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.CompositeLit); ok {
		return lit, true
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := pass.Info.Uses[id].(*types.Var); ok {
			if init, ok := varInit[v]; ok {
				if lit, ok := ast.Unparen(init).(*ast.CompositeLit); ok {
					return lit, true
				}
			}
		}
	}
	return nil, false
}

// resolveFuncBody finds the code the run element executes: a func
// literal's body, a named function's declaration, the declaration of the
// function a call expression invokes (a builder returning the run), or a
// variable's initializer. Returns nil when it can't tell — no blind
// reports.
func resolveFuncBody(pass *framework.Pass, varInit map[*types.Var]ast.Expr, funcDecls map[*types.Func]*ast.FuncDecl, e ast.Expr) ast.Node {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.FuncLit:
		return x.Body
	case *ast.Ident:
		switch obj := pass.Info.Uses[x].(type) {
		case *types.Func:
			if fd := funcDecls[obj]; fd != nil {
				return fd.Body
			}
		case *types.Var:
			if init, ok := varInit[obj]; ok {
				return resolveFuncBody(pass, varInit, funcDecls, init)
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if fn, ok := pass.Info.Uses[id].(*types.Func); ok {
				if fd := funcDecls[fn]; fd != nil {
					return fd.Body
				}
			}
		}
	}
	return nil
}

// mentionsProfiled reports whether the body references a profiled kernel
// or the Counter machinery.
func mentionsProfiled(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if strings.Contains(id.Name, "Profiled") || strings.Contains(id.Name, "Counter") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// --- check 2: sentinel errors wrapped with %w ---

// checkErrorfWrap verifies that every Err* package-level sentinel passed
// to fmt.Errorf rides a %w verb.
func checkErrorfWrap(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs, ok := formatVerbs(constant.StringVal(tv.Value))
	if !ok {
		return
	}
	for i, arg := range call.Args[1:] {
		if i >= len(verbs) {
			break
		}
		name, isSentinel := sentinelError(pass, arg)
		if isSentinel && verbs[i] != 'w' {
			pass.Reportf(arg.Pos(),
				"sentinel error %s passed to fmt.Errorf with %%%c; wrap it with %%w so errors.Is keeps working across the serve/cluster boundary",
				name, verbs[i])
		}
	}
}

// formatVerbs returns the verb letters of a format string in argument
// order. ok is false for forms the scanner doesn't model (explicit
// argument indexes, *-width consuming args).
func formatVerbs(format string) ([]rune, bool) {
	var verbs []rune
	rs := []rune(format)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		i++
		if i >= len(rs) {
			break
		}
		if rs[i] == '%' {
			continue
		}
		for i < len(rs) && strings.ContainsRune("#+-0 .0123456789", rs[i]) {
			i++
		}
		if i >= len(rs) {
			break
		}
		if rs[i] == '[' || rs[i] == '*' {
			return nil, false
		}
		verbs = append(verbs, rs[i])
	}
	return verbs, true
}

// sentinelError reports whether e denotes a package-level error variable
// named Err*.
func sentinelError(pass *framework.Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || !strings.HasPrefix(v.Name(), "Err") {
		return "", false
	}
	if v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	errType, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return "", false
	}
	if !types.Implements(v.Type(), errType) {
		return "", false
	}
	return v.Name(), true
}

// collectVarInits maps variables to their single-assignment initializer
// expressions (ValueSpecs and := statements) so Caps and run values
// bound through locals resolve.
func collectVarInits(pass *framework.Pass) map[*types.Var]ast.Expr {
	out := map[*types.Var]ast.Expr{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.ValueSpec:
				for i, name := range d.Names {
					if i < len(d.Values) {
						if v, ok := pass.Info.Defs[name].(*types.Var); ok {
							out[v] = d.Values[i]
						}
					}
				}
			case *ast.AssignStmt:
				if len(d.Lhs) != len(d.Rhs) {
					return true
				}
				for i, lhs := range d.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if v, ok := pass.Info.Defs[id].(*types.Var); ok {
							out[v] = d.Rhs[i]
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// collectFuncDecls maps package function objects to their declarations.
func collectFuncDecls(pass *framework.Pass) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}
