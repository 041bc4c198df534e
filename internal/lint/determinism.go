package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Determinism proves the engine's bit-identical-runs contract on every
// line of the engine packages: no wall-clock reads, no math/rand (all
// randomness flows through internal/rng's seeded streams), no map
// iteration without a //lint:ordered justification (Go randomizes map
// order per run), and no select racing multiple channels (the winner
// depends on scheduling). Harness packages — cmd/*, internal/scenario,
// internal/service, internal/benchops, internal/experiments, and the
// other tooling — are out of scope by configuration: they time things
// and talk to the OS on purpose.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, math/rand, unordered map iteration, and channel races in engine packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !engineScope(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		for _, spec := range file.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(spec.Pos(), "import of %s in engine package %s: all protocol randomness must come from internal/rng seeded streams", path, pass.PkgPath)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obj := calleeObj(pass.Info, n)
				if pkgPathOf(obj) == "time" && (obj.Name() == "Now" || obj.Name() == "Since") {
					pass.Reportf(n.Pos(), "time.%s in engine package %s: wall-clock reads break bit-identical runs (use round counts)", obj.Name(), pass.PkgPath)
				}
			case *ast.RangeStmt:
				if _, ok := pass.Info.TypeOf(n.X).Underlying().(*types.Map); !ok {
					return true
				}
				ok, bare := hasMarkerComment(pass, file, n.Pos(), orderedMarker)
				switch {
				case !ok:
					pass.Reportf(n.Pos(), "range over map in engine package %s: iteration order is randomized; drain in sorted-key order, or annotate the statement //lint:ordered <reason> if the loop is order-insensitive", pass.PkgPath)
				case bare:
					pass.Reportf(n.Pos(), "//lint:ordered needs a reason: say why this map iteration is order-insensitive")
				}
			case *ast.SelectStmt:
				comm := 0
				for _, clause := range n.Body.List {
					if c, ok := clause.(*ast.CommClause); ok && c.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					pass.Reportf(n.Pos(), "select with %d communication cases in engine package %s: the winning case depends on scheduling, not on (protocol, seed)", comm, pass.PkgPath)
				}
			}
			return true
		})
	}
	return nil
}
