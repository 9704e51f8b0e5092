package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Determinism enforces the contracts behind bit-identical deterministic
// replay in every importable (non-main) package of the module — the
// simulation packages under internal/ and any package they could import,
// so a helper that reads the clock or leaks map order is flagged where it
// is written, not where simulation code first calls it:
//
//   - no wall-clock time (time.Now and friends) — simulated time is the
//     only clock;
//   - no math/rand — every stochastic decision draws from the explicitly
//     seeded internal/rng streams;
//   - no go statements — the simulation is single-threaded per core, and
//     goroutine interleaving would break replay;
//   - no map-iteration-order dependence: a `range` over a map may not
//     mutate simulator state, call a mutating metrics method, write
//     output, or build a slice it never sorts. Order-independent bodies
//     (map→map copies, integer accumulation, keyed writes) pass, and the
//     collect-keys-then-sort idiom passes when a sort call follows in the
//     same function.
//
// Checkpoint serialization files (checkpoint*.go) get a stricter form of
// the map rule: there, a range over a map may do nothing but collect keys
// into a slice that is sorted afterwards. Serialization turns simulator
// state into bytes that must be identical across runs (the on-disk warm
// states are content-addressed), so body shapes the general rule
// tolerates — keyed writes, commutative accumulation — are still banned:
// a later refactor could route them into the encoded stream unnoticed.
type Determinism struct{}

// Name implements Analyzer.
func (*Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (*Determinism) Doc() string {
	return "forbid wall-clock, global RNG, goroutines, and map-iteration-order dependence in every importable package"
}

// wallClockFuncs are the package time functions that read the host clock
// or schedule against it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true,
	"Sleep": true,
}

// mutatingMetricMethods are the internal/metrics methods that change
// metric state; calling one inside map iteration makes the metric's
// update order (and any sampling interleaved with it) nondeterministic.
var mutatingMetricMethods = map[string]bool{
	"Inc": true, "Add": true, "Observe": true, "Set": true, "Reset": true,
}

// Check implements Analyzer.
func (d *Determinism) Check(p *Package, rep *Reporter) {
	if p.Types.Name() == "main" {
		return // a command cannot be imported, so simulation code never calls into it
	}
	module := moduleOf(p.ImportPath)
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			switch importPath(imp) {
			case "math/rand", "math/rand/v2":
				rep.Reportf(d.Name(), imp.Pos(),
					"import of %s in simulation code: use the seeded streams of %s/internal/rng", importPath(imp), module)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.GoStmt:
				rep.Reportf(d.Name(), node.Pos(),
					"go statement in simulation code: goroutine interleaving breaks deterministic replay")
			case *ast.SelectorExpr:
				if pkg, name, ok := pkgSel(p, node); ok && pkg == "time" && wallClockFuncs[name] {
					rep.Reportf(d.Name(), node.Pos(),
						"time.%s reads the host clock: simulation code must use simulated cycles only", name)
				}
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(node.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						d.checkMapRange(p, rep, file, node, module)
					}
				}
			}
			return true
		})
	}
}

// isCheckpointFile reports whether filename is a checkpoint serialization
// source file: checkpoint.go, checkpoint_*.go, or *_checkpoint.go, tests
// excluded. The shapes are deliberate — socket_checkpoint.go is capture
// code, while a file that merely starts with the word (say,
// checkpointcoverage.go in the lint package) is not.
func isCheckpointFile(filename string) bool {
	base := filepath.Base(filename)
	if !strings.HasSuffix(base, ".go") || strings.HasSuffix(base, "_test.go") {
		return false
	}
	return base == "checkpoint.go" ||
		strings.HasPrefix(base, "checkpoint_") ||
		strings.HasSuffix(base, "_checkpoint.go")
}

// checkMapRange classifies the body of a range-over-map statement.
func (d *Determinism) checkMapRange(p *Package, rep *Reporter, file *ast.File, rs *ast.RangeStmt, module string) {
	if isCheckpointFile(p.Fset.Position(rs.Pos()).Filename) {
		d.checkCheckpointMapRange(p, rep, file, rs)
		return
	}
	metricsPkg := module + "/internal/metrics"
	statePkgs := map[string]bool{
		module + "/internal/mem":   true,
		module + "/internal/cache": true,
	}
	// appendTargets collects outer-scope slice variables grown inside the
	// loop; they inherit map iteration order and must be sorted afterwards.
	appendTargets := map[types.Object]token.Pos{}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			d.checkCall(p, rep, node, metricsPkg, statePkgs)
		case *ast.AssignStmt:
			d.checkAssign(p, rep, rs, node, appendTargets)
		case *ast.IncDecStmt:
			if id, ok := node.X.(*ast.Ident); ok {
				if obj := objOf(p, id); obj != nil && !declaredWithin(obj, rs) && isFloat(obj.Type()) {
					rep.Reportf(d.Name(), node.Pos(),
						"floating-point update of %s in map-iteration order is not associative across orders", id.Name)
				}
			}
		}
		return true
	})

	// The collect-then-sort idiom: every appended slice must reach a
	// sort.* / slices.Sort* call after the loop, in the same function.
	if len(appendTargets) == 0 {
		return
	}
	body := enclosingFunc(file, rs.Pos())
	for obj, pos := range appendTargets {
		if body == nil || !sortedAfter(p, body, rs.End(), obj) {
			rep.Reportf(d.Name(), pos,
				"slice %s is built in map-iteration order and never sorted afterwards: collect keys then sort (the sorted-keys idiom), or iterate a sorted key slice", obj.Name())
		}
	}
}

// checkCheckpointMapRange applies the stricter serialization rule: inside
// a checkpoint*.go file, every statement of a range-over-map body must
// append the iteration key to an outer slice, and every such slice must
// reach a sort call before the function ends. Anything else — keyed
// writes, accumulation, calls — is flagged even though the general rule
// would accept it, because serialization output must be byte-stable.
func (d *Determinism) checkCheckpointMapRange(p *Package, rep *Reporter, file *ast.File, rs *ast.RangeStmt) {
	appendTargets := map[types.Object]token.Pos{}
	for _, stmt := range rs.Body.List {
		if as, ok := stmt.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if obj := objOf(p, id); obj != nil && !declaredWithin(obj, rs) && isAppendTo(p, as, 0, obj) {
					appendTargets[obj] = as.Pos()
					continue
				}
			}
		}
		rep.Reportf(d.Name(), stmt.Pos(),
			"map iteration in checkpoint serialization code may only collect keys: collect into a slice, sort it, then index the map (sorted-keys idiom)")
	}
	body := enclosingFunc(file, rs.Pos())
	for obj, pos := range appendTargets {
		if body == nil || !sortedAfter(p, body, rs.End(), obj) {
			rep.Reportf(d.Name(), pos,
				"slice %s collects checkpoint map keys but is never sorted: the serialized byte stream would follow map iteration order", obj.Name())
		}
	}
}

// checkCall flags calls inside a map-range body that make iteration order
// observable: mutating metrics methods, simulator-state methods (mem,
// cache), and output writes.
func (d *Determinism) checkCall(p *Package, rep *Reporter, call *ast.CallExpr, metricsPkg string, statePkgs map[string]bool) {
	if _, recvType, method, ok := methodCall(p, call); ok {
		pkg, typeName := typeDeclPkg(recvType)
		switch {
		case pkg == metricsPkg && mutatingMetricMethods[method]:
			rep.Reportf(d.Name(), call.Pos(),
				"%s.%s called in map-iteration order: metric updates must happen in a deterministic order", typeName, method)
		case statePkgs[pkg]:
			rep.Reportf(d.Name(), call.Pos(),
				"%s.%s called in map-iteration order: memory-system state would mutate in nondeterministic order", typeName, method)
		case method == "Write" || method == "WriteString" || method == "WriteByte" || method == "WriteRune":
			rep.Reportf(d.Name(), call.Pos(),
				"write in map-iteration order produces nondeterministic output: iterate sorted keys instead")
		}
		return
	}
	if pkg, name, ok := pkgFuncCall(p, call); ok && pkg == "fmt" {
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			rep.Reportf(d.Name(), call.Pos(),
				"fmt.%s in map-iteration order produces nondeterministic output: iterate sorted keys instead", name)
		}
	}
}

// checkAssign classifies assignments inside a map-range body. Writes keyed
// by the iteration variable (map/slice index writes) and loop-local
// variables are order-independent; growth of an outer slice is recorded
// for the sorted-afterwards check; everything else that writes outer state
// is order-dependent and flagged.
func (d *Determinism) checkAssign(p *Package, rep *Reporter, rs *ast.RangeStmt, as *ast.AssignStmt, appendTargets map[types.Object]token.Pos) {
	for i, lhs := range as.Lhs {
		switch target := lhs.(type) {
		case *ast.IndexExpr:
			// m[k] = v or s[i] = v: keyed writes are order-independent.
		case *ast.Ident:
			if target.Name == "_" {
				continue
			}
			obj := objOf(p, target)
			if obj == nil || declaredWithin(obj, rs) {
				continue // loop-local
			}
			if as.Tok == token.DEFINE {
				continue
			}
			if isAppendTo(p, as, i, obj) {
				appendTargets[obj] = as.Pos()
				continue
			}
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN:
				// Commutative integer accumulation is order-independent;
				// float accumulation is not associative.
				if isFloat(obj.Type()) {
					rep.Reportf(d.Name(), as.Pos(),
						"floating-point accumulation into %s in map-iteration order is not associative across orders", target.Name)
				}
			default:
				rep.Reportf(d.Name(), as.Pos(),
					"assignment to %s in map-iteration order is last-writer-wins and therefore nondeterministic", target.Name)
			}
		case *ast.SelectorExpr:
			rep.Reportf(d.Name(), as.Pos(),
				"field write %s in map-iteration order mutates shared state nondeterministically", exprString(target))
		case *ast.StarExpr:
			rep.Reportf(d.Name(), as.Pos(),
				"pointer write in map-iteration order mutates shared state nondeterministically")
		}
	}
}

// isAppendTo reports whether as assigns lhs index i from append(lhs, ...).
func isAppendTo(p *Package, as *ast.AssignStmt, i int, obj types.Object) bool {
	if len(as.Rhs) != len(as.Lhs) && len(as.Rhs) != 1 {
		return false
	}
	rhs := as.Rhs[0]
	if len(as.Rhs) == len(as.Lhs) {
		rhs = as.Rhs[i]
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if b, ok := p.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	return ok && objOf(p, first) == obj
}

// sortedAfter reports whether a sort.*/slices.Sort* call mentioning obj
// appears after pos inside body.
func sortedAfter(p *Package, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		pkg, _, ok := pkgFuncCall(p, call)
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && objOf(p, id) == obj {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// pkgSel resolves a selector to (package path, member name) when its base
// is a package qualifier.
func pkgSel(p *Package, sel *ast.SelectorExpr) (string, string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isFloat reports whether t's underlying type is a floating-point kind.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// importPath unquotes an import spec's path.
func importPath(imp *ast.ImportSpec) string {
	s := imp.Path.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}

// moduleOf extracts the module prefix of an import path (the first
// segment), matching this repo's single-segment module name.
func moduleOf(importPath string) string {
	for i := 0; i < len(importPath); i++ {
		if importPath[i] == '/' {
			return importPath[:i]
		}
	}
	return importPath
}

// exprString renders a simple selector chain for messages.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	default:
		return "<expr>"
	}
}
