package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// sessionWriterFiles are the only files of the root overlay package
// allowed to write overlay.Session state — assign a Session field or
// publish a committed state with state.Store: session.go owns the
// session lifecycle (Open, Restore), epoch.go the epoch and its commit.
// Everything else reads sessions through their exported read-side
// methods.
var sessionWriterFiles = map[string]bool{
	"session.go": true,
	"epoch.go":   true,
}

// sessionMutators are the exported overlay.Session methods that write
// session state. In internal/service they may only be called from the
// supervisor worker goroutine: inside a JobFunc literal (the unit of
// serialized mutation) or inside the worker's own methods. Checkpoint
// is deliberately absent — it is read-only and the drain path calls it
// from the worker anyway.
var sessionMutators = map[string]bool{
	"ApplyEpoch":    true,
	"ApplyEpochCtx": true,
	"Restore":       true,
}

// supervisorWorkerMethods are the Supervisor methods that execute on
// the single worker goroutine (the queue drain loop and its helpers);
// session mutations are legal there by construction.
var supervisorWorkerMethods = map[string]bool{
	"loop":   true,
	"runJob": true,
	"seal":   true,
}

// SingleWriter proves the session single-writer contract at both ends:
// in the root overlay package, fields of overlay.Session are assigned
// and its committed state is stored only from session.go/epoch.go (the
// files that hold the writer lock); in internal/service, the exported
// session mutators are
// called only from the supervisor worker goroutine's job functions —
// the contract the -race concurrency tests sample, checked here on
// every call site.
var SingleWriter = &Analyzer{
	Name: "singlewriter",
	Doc:  "overlay.Session fields are assigned and Session.state stored only from session.go/epoch.go; internal/service mutates sessions only from supervisor job functions",
	Run:  runSingleWriter,
}

func runSingleWriter(pass *Pass) error {
	switch pass.PkgPath {
	case "overlay":
		checkSessionFieldWrites(pass)
	case "overlay/internal/service":
		checkServiceMutatorCalls(pass)
	}
	return nil
}

// checkSessionFieldWrites flags assignments to Session fields, and
// stores through the Session.state pointer, outside the designated
// writer files.
func checkSessionFieldWrites(pass *Pass) {
	for _, file := range pass.Files {
		name := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if sessionWriterFiles[name] {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					reportSessionFieldWrite(pass, name, lhs)
				}
			case *ast.IncDecStmt:
				reportSessionFieldWrite(pass, name, n.X)
			case *ast.CallExpr:
				// s.state.Store(next): the receiver of Store is a field
				// selection on a Session.
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Store" {
					reportSessionFieldWrite(pass, name, sel.X)
				}
			}
			return true
		})
	}
}

func reportSessionFieldWrite(pass *Pass, filename string, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	if !isSessionType(pass, selection.Recv()) {
		return
	}
	pass.Reportf(sel.Pos(), "write to Session.%s from %s: Session state is single-writer and only session.go/epoch.go may assign its fields or store its state", sel.Sel.Name, filename)
}

// isSessionType reports whether t is (a pointer to) this package's
// Session type.
func isSessionType(pass *Pass, t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Session" && named.Obj().Pkg() == pass.Pkg
}

// checkServiceMutatorCalls walks internal/service tracking whether the
// enclosing context is licensed to mutate (a JobFunc literal or a
// supervisor worker method) and flags mutator calls everywhere else.
func checkServiceMutatorCalls(pass *Pass) {
	jobFuncSig := lookupJobFuncSig(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			licensed := (fn.Recv != nil && isSupervisorMethod(pass, fn) && supervisorWorkerMethods[fn.Name.Name]) ||
				jobFuncShapedDecl(pass, fn)
			walkMutatorCalls(pass, fn.Body, licensed, jobFuncSig)
		}
	}
}

// jobFuncShapedDecl reports whether the declaration follows the
// job-function-body convention: params starting (context.Context,
// *overlay.Session, ...) and results exactly (any, bool, error) — the
// JobFunc signature with optional extra arguments. Such a function is
// a JobFunc body factored out for reuse; its own calls are licensed,
// and calling *it* requires a license (walkMutatorCalls treats it as a
// mutation entry), so the shape cannot be used to smuggle a mutation
// onto a request goroutine.
func jobFuncShapedDecl(pass *Pass, fn *ast.FuncDecl) bool {
	sig, ok := pass.Info.Defs[fn.Name].Type().(*types.Signature)
	if !ok {
		return false
	}
	return jobFuncShape(sig)
}

func jobFuncShape(sig *types.Signature) bool {
	params, results := sig.Params(), sig.Results()
	if params.Len() < 2 || results.Len() != 3 {
		return false
	}
	if !isContextType(params.At(0).Type()) || !isSessionParam(params.At(1).Type()) {
		return false
	}
	if iface, ok := results.At(0).Type().Underlying().(*types.Interface); !ok || !iface.Empty() {
		return false
	}
	if b, ok := results.At(1).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return false
	}
	named, ok := results.At(2).Type().(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// walkMutatorCalls recurses with the licensing state. Entering a
// JobFunc-shaped literal licenses its body; deferred literals and
// literals invoked on the spot inherit the current license (both run
// on the same goroutine); a `go` statement's literal revokes it (a
// goroutine spawned inside a job function is not the worker
// goroutine); any other literal is unlicensed — it may be handed to
// anyone.
func walkMutatorCalls(pass *Pass, n ast.Node, licensed bool, jobFuncSig *types.Signature) {
	ast.Inspect(n, func(child ast.Node) bool {
		switch child := child.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(child.Call.Fun).(*ast.FuncLit); ok {
				walkMutatorCalls(pass, lit.Body, false, jobFuncSig)
				for _, a := range child.Call.Args {
					walkMutatorCalls(pass, a, licensed, jobFuncSig)
				}
				return false
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(child.Call.Fun).(*ast.FuncLit); ok {
				walkMutatorCalls(pass, lit.Body, licensed, jobFuncSig)
				for _, a := range child.Call.Args {
					walkMutatorCalls(pass, a, licensed, jobFuncSig)
				}
				return false
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(child.Fun).(*ast.FuncLit); ok {
				walkMutatorCalls(pass, lit.Body, licensed, jobFuncSig)
				for _, a := range child.Args {
					walkMutatorCalls(pass, a, licensed, jobFuncSig)
				}
				return false
			}
			if name, ok := mutatorCall(pass, child); ok && !licensed {
				pass.Reportf(child.Pos(), "Session.%s called outside a supervisor job function: internal/service mutates sessions only on the worker goroutine (submit a JobFunc via Supervisor.Do)", name)
			}
			if name, ok := jobBodyCall(pass, child); ok && !licensed {
				pass.Reportf(child.Pos(), "job-function body %s called outside a supervisor job function: wrap the call in a JobFunc submitted via Supervisor.Do", name)
			}
		case *ast.FuncLit:
			lit := licensedLiteral(pass, child, jobFuncSig)
			walkMutatorCalls(pass, child.Body, lit, jobFuncSig)
			return false
		}
		return true
	})
}

// licensedLiteral reports whether the literal is a JobFunc: by named
// signature when the package declares type JobFunc, structurally
// (func(context.Context, *Session) (...)) otherwise.
func licensedLiteral(pass *Pass, lit *ast.FuncLit, jobFuncSig *types.Signature) bool {
	sig, ok := pass.Info.TypeOf(lit).(*types.Signature)
	if !ok {
		return false
	}
	if jobFuncSig != nil {
		return types.Identical(sig, jobFuncSig)
	}
	return sig.Params().Len() >= 2 && isSessionParam(sig.Params().At(1).Type())
}

func lookupJobFuncSig(pass *Pass) *types.Signature {
	obj := pass.Pkg.Scope().Lookup("JobFunc")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	sig, ok := tn.Type().Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return sig
}

func isSessionParam(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Session" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "overlay"
}

// mutatorCall reports whether the call invokes an exported Session
// mutator and returns its name.
func mutatorCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !sessionMutators[sel.Sel.Name] {
		return "", false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Session" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "overlay" {
		return "", false
	}
	return sel.Sel.Name, true
}

// jobBodyCall reports whether the call invokes a package-local
// function following the job-function-body convention (see
// jobFuncShapedDecl).
func jobBodyCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return "", false
	}
	if !jobFuncShape(fn.Type().(*types.Signature)) {
		return "", false
	}
	return fn.Name(), true
}

// isSupervisorMethod reports whether fn's receiver is (a pointer to)
// this package's Supervisor type.
func isSupervisorMethod(pass *Pass, fn *ast.FuncDecl) bool {
	if len(fn.Recv.List) != 1 {
		return false
	}
	t := pass.Info.TypeOf(fn.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Supervisor" && named.Obj().Pkg() == pass.Pkg
}
