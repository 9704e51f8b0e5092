package lint

import (
	"go/token"
	"sort"
	"strings"
)

// Program is the whole-program view the cross-package analyzers run over:
// every loaded package, the module import graph, the call graph over
// type-checked functions, and the facts store the per-package passes
// export into.
type Program struct {
	// Module is the module path ("pdip").
	Module string
	// Root is the module root directory.
	Root string
	// Packages are the loaded packages, in load order (sorted by directory).
	Packages []*Package
	// Fset is the shared file set positioning every package.
	Fset *token.FileSet
	// Graph is the module-internal import graph.
	Graph *PackageGraph
	// Calls is the static call graph over the module's functions.
	Calls *CallGraph
	// Facts is the cross-package facts store.
	Facts *Facts
	// Escape provides per-package escape-analysis diagnostics (the
	// compiler's -gcflags=-m output). Defaults to a cached `go build`
	// runner; tests may substitute a fake.
	Escape EscapeSource
}

// NewProgram assembles the whole-program view over pkgs, which must all
// have been loaded by l (they share its FileSet and module).
func NewProgram(l *Loader, pkgs []*Package) *Program {
	prog := &Program{
		Module:   l.Module,
		Root:     l.Root,
		Packages: pkgs,
		Fset:     l.Fset(),
		Graph:    NewPackageGraph(l.Module, pkgs),
		Facts:    NewFacts(),
	}
	prog.Calls = NewCallGraph(pkgs)
	prog.Escape = NewGoBuildEscape(l.Root, l.Module)
	return prog
}

// PackageByPath returns the loaded package with the given import path.
func (prog *Program) PackageByPath(path string) *Package {
	return prog.Graph.byPath[path]
}

// PackageGraph is the module-internal import graph, plus per-package
// content hashes for build-output caching.
type PackageGraph struct {
	module string
	byPath map[string]*Package
	// imports maps import path -> sorted module-internal imports.
	imports map[string][]string
}

// NewPackageGraph indexes the module-internal import edges of pkgs.
func NewPackageGraph(module string, pkgs []*Package) *PackageGraph {
	g := &PackageGraph{
		module:  module,
		byPath:  map[string]*Package{},
		imports: map[string][]string{},
	}
	for _, p := range pkgs {
		g.byPath[p.ImportPath] = p
	}
	for _, p := range pkgs {
		seen := map[string]bool{}
		var deps []string
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				path := importPath(imp)
				if (path == module || strings.HasPrefix(path, module+"/")) && !seen[path] {
					seen[path] = true
					deps = append(deps, path)
				}
			}
		}
		sort.Strings(deps)
		g.imports[p.ImportPath] = deps
	}
	return g
}

// Imports returns the module-internal imports of path, sorted.
func (g *PackageGraph) Imports(path string) []string { return g.imports[path] }

// TransitiveImports returns path's module-internal import closure
// (excluding path itself), sorted.
func (g *PackageGraph) TransitiveImports(path string) []string {
	seen := map[string]bool{path: true}
	var out []string
	queue := append([]string(nil), g.imports[path]...)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
		queue = append(queue, g.imports[p]...)
	}
	sort.Strings(out)
	return out
}

// Facts is the cross-package facts store: the per-package pass of a
// whole-program analyzer exports facts keyed by analyzer and package, and
// the program pass imports them — the same export/import shape as
// x/tools/go/analysis facts, without the dependency.
type Facts struct {
	pkg map[string]map[string]any // analyzer -> import path -> fact
}

// NewFacts returns an empty facts store.
func NewFacts() *Facts {
	return &Facts{pkg: map[string]map[string]any{}}
}

// ExportPackageFact records analyzer's fact about the package at path,
// replacing any previous fact.
func (f *Facts) ExportPackageFact(analyzer, path string, fact any) {
	m := f.pkg[analyzer]
	if m == nil {
		m = map[string]any{}
		f.pkg[analyzer] = m
	}
	m[path] = fact
}

// PackageFactEntry is one exported fact with its package path.
type PackageFactEntry struct {
	Path string
	Fact any
}

// AllPackageFacts returns every fact exported by analyzer, sorted by
// package path — a deterministic iteration order for the program pass.
func (f *Facts) AllPackageFacts(analyzer string) []PackageFactEntry {
	var keys []string
	for path := range f.pkg[analyzer] {
		keys = append(keys, path)
	}
	sort.Strings(keys)
	out := make([]PackageFactEntry, 0, len(keys))
	for _, path := range keys {
		out = append(out, PackageFactEntry{Path: path, Fact: f.pkg[analyzer][path]})
	}
	return out
}
