package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath enforces the allocation-free discipline on functions whose
// doc comment carries //overlay:hotpath — the per-round engine loops,
// the shard scatter, and the repair sweeps, where "a steady-state
// round allocates nothing" is a committed benchmark fence. Inside an
// annotated function the analyzer forbids the patterns that put
// garbage on the per-round path: fmt calls, string concatenation,
// go statements (a goroutine, and the closure its call is wrapped in,
// are allocated at every spawn — fan-out belongs to par.Team, whose
// workers are started once per call), closures that capture surrounding
// state without being invoked on the spot (captured variables move to
// the heap; a literal a go statement calls is not invoked on the spot),
// appends that grow a fresh unsized local slice inside a loop (growth
// reallocates every doubling), explicit conversions of concrete values to interface types
// (which box), and make or new, unless the line (or the line above)
// carries //lint:alloc with a reason — amortised growth of storage the
// function keeps is the one allocation a hot path may own, and it must
// say so. The checks are syntactic approximations of escape analysis,
// deliberately conservative: hot functions are written flat, and
// anything the analyzer cannot see is flat is a finding.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//overlay:hotpath functions may not contain go statements, fmt calls, string concatenation, escaping closures, unsized loop appends, boxing conversions, or make/new without a //lint:alloc reason",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !isHotpath(fn) || fn.Body == nil {
				continue
			}
			checkHotFunc(pass, file, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, file *ast.File, fn *ast.FuncDecl) {
	invoked := immediatelyInvoked(fn.Body)
	fresh := freshSlices(pass, fn.Body)

	var walk func(n ast.Node, loopDepth int)
	walk = func(n ast.Node, loopDepth int) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hotpath function %s spawns a goroutine per call; hand the work to a par.Team started outside the hot path", fn.Name.Name)
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, fresh, loopDepth)
			checkHotAlloc(pass, file, fn, n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.Info.TypeOf(n)) {
				pass.Reportf(n.Pos(), "string concatenation in hotpath function %s allocates; build strings off the hot path", fn.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.Info.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(), "string += in hotpath function %s allocates; build strings off the hot path", fn.Name.Name)
			}
		case *ast.FuncLit:
			if !invoked[n] {
				if capt := capturedVar(pass, fn, n); capt != "" {
					pass.Reportf(n.Pos(), "closure in hotpath function %s captures %s and is not invoked in place: captured variables escape to the heap", fn.Name.Name, capt)
				}
			}
		}
		ast.Inspect(n, func(child ast.Node) bool {
			if child == n || child == nil {
				return child == n
			}
			walk(child, loopDepth)
			return false
		})
	}
	walk(fn.Body, 0)
}

// checkHotCall flags fmt calls, boxing conversions, and unsized loop
// appends at one call site.
func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, fresh map[*types.Var]bool, loopDepth int) {
	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if argT := pass.Info.TypeOf(call.Args[0]); argT != nil && !types.IsInterface(argT) {
				pass.Reportf(call.Pos(), "conversion to interface type %s in hotpath function %s boxes its operand", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), fn.Name.Name)
			}
		}
		return
	}
	obj := calleeObj(pass.Info, call)
	if pkgPathOf(obj) == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in hotpath function %s: fmt boxes its operands and allocates; hot paths report via counters or panic helpers outside the annotation", obj.Name(), fn.Name.Name)
		return
	}
	// append growing a fresh unsized local inside a loop: every
	// doubling reallocates and copies.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && pass.Info.Uses[id] == types.Universe.Lookup("append") {
		if loopDepth == 0 || len(call.Args) == 0 {
			return
		}
		if target, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if v, ok := pass.Info.Uses[target].(*types.Var); ok && fresh[v] {
				pass.Reportf(call.Pos(), "append to %s in a loop in hotpath function %s: the slice was declared without capacity; preallocate with make(..., 0, n) or reuse a scratch buffer", target.Name, fn.Name.Name)
			}
		}
	}
}

// checkHotAlloc flags a call of the make or new builtin that no
// //lint:alloc comment with a reason justifies.
func checkHotAlloc(pass *Pass, file *ast.File, fn *ast.FuncDecl, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || (id.Name != "make" && id.Name != "new") || pass.Info.Uses[id] != types.Universe.Lookup(id.Name) {
		return
	}
	switch ok, bare := hasMarkerComment(pass, file, call.Pos(), allocMarker); {
	case !ok:
		pass.Reportf(call.Pos(), "%s in hotpath function %s allocates; reuse storage the engine keeps, or annotate the line //lint:alloc <reason> if the allocation is amortised", id.Name, fn.Name.Name)
	case bare:
		pass.Reportf(call.Pos(), "//lint:alloc needs a reason: say why this allocation belongs on the hot path")
	}
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// immediatelyInvoked maps the function literals that are called on the
// spot (an IIFE does not force its captures to outlive the frame). The
// literal of go func(){…}() is not: it runs on another goroutine, after
// the frame may be gone, so its captures escape.
func immediatelyInvoked(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	spawned := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			spawned[n.Call] = true
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok && !spawned[n] {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

// freshSlices collects local slice variables declared with no capacity:
// `var s []T`, `s := []T{}`, and two-argument make. Three-argument make
// (an explicit capacity) and anything sliced from existing storage do
// not count.
func freshSlices(pass *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(id *ast.Ident) {
		if v, ok := pass.Info.Defs[id].(*types.Var); ok {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				out[v] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if freshSliceExpr(pass, n.Rhs[i]) {
					mark(id)
				}
			}
		}
		return true
	})
	return out
}

// freshSliceExpr reports whether e allocates an empty, capacity-less
// slice: a zero-element composite literal or a two-argument make.
func freshSliceExpr(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		_, isSlice := pass.Info.TypeOf(e).Underlying().(*types.Slice)
		return isSlice && len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || pass.Info.Uses[id] != types.Universe.Lookup("make") {
			return false
		}
		_, isSlice := pass.Info.TypeOf(e).Underlying().(*types.Slice)
		return isSlice && len(e.Args) == 2
	}
	return false
}

// capturedVar returns the name of a variable the literal captures from
// the enclosing function, or "". Package-level variables do not count
// (they are not moved to the heap by the closure).
func capturedVar(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fn.Pos() && v.Pos() < fn.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			found = v.Name()
		}
		return true
	})
	return found
}
