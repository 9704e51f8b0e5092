package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllocFree is the static form of the perf-smoke zero-alloc gate: it
// drives the compiler's own escape analysis (go build -gcflags=-m) over
// every package containing code reachable from a `//lint:hotpath`
// function, and rejects any heap-allocation site the call graph can reach
// from such a root. The runtime twin (make perf-smoke) measures allocs/op
// after the fact; this analyzer points at the offending line before the
// code ever runs.
//
// Roots are function declarations whose doc comment contains a line
// `//lint:hotpath` — the six pipeline-stage ticks, PQ drain, cache
// lookup, MSHR prune, and socket stepping. Reachability follows direct
// calls, method calls, interface dispatch (class-hierarchy analysis over
// the module's types), and module functions and methods referenced as
// values (a method value passed to a callee may be called there);
// closures defined inside a reachable function are checked by position.
//
// Deliberate amortized allocations (pool refills, buffer growth on the
// cold setup path) are suppressed with `//lint:ignore allocfree <reason>`
// at the allocation site, keeping every exception documented.
type AllocFree struct{}

// Name implements Analyzer.
func (*AllocFree) Name() string { return "allocfree" }

// Doc implements Analyzer.
func (*AllocFree) Doc() string {
	return "forbid heap allocations reachable from //lint:hotpath functions (compiler escape analysis over the call graph)"
}

// hotpathFact lists the //lint:hotpath roots declared in one package.
type hotpathFact struct {
	roots []*types.Func
}

// isHotpathDoc reports whether doc carries a //lint:hotpath directive.
func isHotpathDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == "//lint:hotpath" {
			return true
		}
	}
	return false
}

// Check implements Analyzer: it exports the package's hotpath roots as a
// fact for the program pass.
func (a *AllocFree) Check(p *Package, rep *Reporter) {
	var fact hotpathFact
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isHotpathDoc(fd.Doc) {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				rep.Reportf(a.Name(), fd.Pos(), "//lint:hotpath on a declaration the type checker could not resolve")
				continue
			}
			fact.roots = append(fact.roots, origin(fn))
		}
	}
	if len(fact.roots) > 0 {
		sort.Slice(fact.roots, func(i, j int) bool { return fact.roots[i].Pos() < fact.roots[j].Pos() })
		rep.Facts().ExportPackageFact(a.Name(), p.ImportPath, &fact)
	}
}

// CheckProgram implements WholeProgram: reachability from the hotpath
// roots, escape diagnostics for every package the reachable set touches,
// and a report for each heap-allocation site inside a reachable function.
func (a *AllocFree) CheckProgram(prog *Program, rep *Reporter) {
	var roots []*types.Func
	for _, entry := range prog.Facts.AllPackageFacts(a.Name()) {
		roots = append(roots, entry.Fact.(*hotpathFact).roots...)
	}
	if len(roots) == 0 {
		return
	}
	reached := prog.Calls.Reachable(roots)

	// Packages whose escape output we need: every package declaring a
	// reachable function. Main packages are skipped (go build would write
	// a binary; no hot path lives in package main).
	needSet := map[string]bool{}
	for fn := range reached {
		node := prog.Calls.Node(fn)
		if node == nil || node.Pkg.Types == nil || node.Pkg.Types.Name() == "main" {
			continue
		}
		needSet[node.Pkg.ImportPath] = true
	}
	var need []string
	for path := range needSet {
		need = append(need, path)
	}
	sort.Strings(need)

	escapes, err := prog.Escape.Diagnostics(prog, need)
	if err != nil {
		rep.Reportf(a.Name(), token.NoPos, "escape analysis unavailable: %v", err)
		return
	}

	for _, path := range need {
		p := prog.PackageByPath(path)
		files := map[string]*ast.File{}
		for _, f := range p.Files {
			files[p.Fset.Position(f.Pos()).Filename] = f
		}
		seen := map[string]bool{}
		for _, d := range escapes[path] {
			if !d.IsHeapAlloc() {
				continue
			}
			f, ok := files[d.File]
			if !ok {
				continue
			}
			pos := positionPos(p.Fset, f, d.Line, d.Col)
			if pos == token.NoPos {
				continue
			}
			fn := enclosingDeclFunc(p, f, pos)
			if fn == nil {
				continue
			}
			if _, ok := reached[origin(fn)]; !ok {
				continue
			}
			key := d.File + ":" + itoaKey(d.Line) + ":" + itoaKey(d.Col) + ":" + d.Message
			if seen[key] {
				continue
			}
			seen[key] = true
			rep.Reportf(a.Name(), pos,
				"heap allocation on the hot path: %s (reachable via %s)",
				d.Message, Chain(reached, fn))
		}
	}
}

// enclosingDeclFunc returns the function object of the top-level FuncDecl
// containing pos in f (closures are attributed to their enclosing
// declaration), or nil.
func enclosingDeclFunc(p *Package, f *ast.File, pos token.Pos) *types.Func {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos >= fd.End() {
			continue
		}
		if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// positionPos converts a (line, column) pair in f's source file into a
// token.Pos, or NoPos when out of range.
func positionPos(fset *token.FileSet, f *ast.File, line, col int) token.Pos {
	tf := fset.File(f.Pos())
	if tf == nil || line < 1 || line > tf.LineCount() {
		return token.NoPos
	}
	pos := tf.LineStart(line) + token.Pos(col-1)
	if pos < token.Pos(tf.Base()) || pos > token.Pos(tf.Base()+tf.Size()) {
		return tf.LineStart(line)
	}
	return pos
}

func itoaKey(n int) string {
	if n < 0 {
		return "-" + itoaKey(-n)
	}
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
