// Package lint is overlayvet's analysis framework: a small, stdlib-only
// reimplementation of the golang.org/x/tools/go/analysis surface (the
// container bakes in the toolchain but not x/tools, so the framework is
// self-contained) plus the repo-specific analyzers that prove the
// engine's contracts at compile time:
//
//   - determinism: engine packages may not read wall clocks, use
//     math/rand, iterate maps without a //lint:ordered justification,
//     or race channels in multi-case selects (sim.md invariant: a run
//     is a pure function of (protocol, seed) at every worker count).
//   - wiredisc: every wire payload declares the Encode/Decode pair with
//     a distinct registered Kind constant, and nothing interface-typed
//     reaches a send path (the allocation-free message plane).
//   - hotpath: functions annotated //overlay:hotpath stay free of the
//     allocation patterns that would put garbage on the per-round loop.
//   - singlewriter: overlay.Session state is written only from its
//     owning files, and internal/service mutates sessions only from
//     the supervisor worker's job functions.
//
// Annotation grammar (also documented in the README):
//
//   - `//lint:ordered <reason>` on the line of a `range` statement over
//     a map, or on the line directly above it, records that the loop is
//     genuinely order-insensitive. The reason is mandatory prose.
//   - `//overlay:hotpath` as a line of a function's doc comment marks
//     the function as part of the allocation-free hot path.
//   - `//lint:alloc <reason>` on the line of a make or new call inside
//     an //overlay:hotpath function, or on the line directly above it,
//     records that the allocation is amortised — storage the function
//     grows geometrically and keeps, say. The reason is mandatory prose.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package, mirroring
// the x/tools go/analysis shape so the suite can migrate wholesale if
// the dependency ever lands.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers is the full overlayvet suite in reporting order.
var Analyzers = []*Analyzer{
	Determinism,
	WireDisc,
	HotPath,
	SingleWriter,
}

// Lookup resolves an analyzer by name.
func Lookup(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to every package and returns the findings
// sorted by position. Packages outside an analyzer's scope produce no
// findings for it (the analyzers scope themselves via PkgPath).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				PkgPath:  pkg.PkgPath,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Scope configuration. Engine packages carry the determinism and wire
// contracts; harness packages (CLIs, experiment drivers, the service
// layer, benchmark tooling) are exempt by design — they time things,
// race on shutdown channels, and talk to the OS. The root package
// "overlay" is matched exactly (a prefix match would swallow every
// subpackage); the rest match themselves and their subpackages.
var enginePackages = []string{
	"overlay/internal/sim",
	"overlay/internal/wft",
	"overlay/internal/expander",
	"overlay/internal/graphx",
	"overlay/internal/hybrid",
	"overlay/internal/overlays",
}

// engineScope reports whether the package at path carries the engine
// contracts (see enginePackages; "overlay" itself is engine too).
func engineScope(path string) bool {
	if path == "overlay" {
		return true
	}
	for _, p := range enginePackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// orderedMarker is the justification comment for map iteration.
const orderedMarker = "//lint:ordered"

// allocMarker is the justification comment for make or new on the hot
// path.
const allocMarker = "//lint:alloc"

// hotpathMarker marks a function as part of the allocation-free hot
// path when it appears as a line of the function's doc comment.
const hotpathMarker = "//overlay:hotpath"

// hasMarkerComment reports whether a justification comment starting
// with marker sits on pos's line or the line directly above it in the
// same file, and whether it lacks the mandatory reason.
func hasMarkerComment(pass *Pass, file *ast.File, pos token.Pos, marker string) (ok, bare bool) {
	line := pass.Fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, marker) {
				continue
			}
			cl := pass.Fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(c.Text, marker))
			return true, reason == ""
		}
	}
	return false, false
}

// isHotpath reports whether the function declaration's doc comment
// carries the //overlay:hotpath marker.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == hotpathMarker || strings.HasPrefix(text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}

// calleeObj resolves a call expression's callee to its types object
// (func or method), or nil for dynamic/builtin/type-conversion calls.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if ix, ok := info.Instances[fun]; ok && ix.Type != nil {
			return info.Uses[fun]
		}
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	case *ast.IndexExpr:
		return calleeIdent(info, fun.X)
	case *ast.IndexListExpr:
		return calleeIdent(info, fun.X)
	}
	return nil
}

func calleeIdent(info *types.Info, x ast.Expr) types.Object {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}

// pkgPathOf returns the object's package path, or "" for builtins.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isSimPackage reports whether pkg is the engine's sim package (or, in
// golden-test corpora, a stub standing in for it: any package named
// "sim" counts, which is exactly the analysistest convention of stub
// packages shadowing the real ones).
func isSimPackage(pkg *types.Package) bool {
	return pkg != nil && pkg.Name() == "sim"
}

// isWireType reports whether t is (a pointer to) sim.Wire.
func isWireType(t types.Type, wantPtr bool) bool {
	if wantPtr {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Wire" && isSimPackage(named.Obj().Pkg())
}
