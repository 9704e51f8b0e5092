package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CallGraph is a static call graph over the module's type-checked
// functions and methods. Edges cover direct calls, package-qualified
// calls, method calls on concrete receivers, and — via class-hierarchy
// analysis — interface method calls, resolved to every module type that
// implements the interface. A module function or concrete method
// referenced as a value inside a function (co.priorityOf handed to a
// callee, a function stored in a field) counts as called from it, since
// whoever receives the value may call it. Calls through function values
// are not otherwise resolved (closures defined inside a function are
// attributed to that function by position).
type CallGraph struct {
	// nodes maps each declared function (its generic origin) to its node.
	nodes map[*types.Func]*FuncNode
	// concrete are the module's named non-interface types, for CHA.
	concrete []*types.Named
	// chaCache memoises interface-method resolution.
	chaCache map[chaKey][]*types.Func
}

// FuncNode is one declared function or method and its outgoing edges.
type FuncNode struct {
	// Fn is the function object (generic origin for generic functions).
	Fn *types.Func
	// Pkg is the declaring package.
	Pkg *Package
	// Decl is the declaration (nil only for functions without bodies).
	Decl *ast.FuncDecl
	// Calls are the outgoing edges, in source order.
	Calls []CallEdge
}

// CallEdge is one call site.
type CallEdge struct {
	// Callee is the called function (generic origin).
	Callee *types.Func
	// Pos is the call position.
	Pos token.Pos
	// ViaInterface marks a CHA-resolved interface dispatch.
	ViaInterface bool
}

type chaKey struct {
	iface  *types.Interface
	method string
}

// NewCallGraph builds the call graph over every function declared in pkgs.
func NewCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{
		nodes:    map[*types.Func]*FuncNode{},
		chaCache: map[chaKey][]*types.Func{},
	}
	// Index declarations and collect the module's concrete named types.
	for _, p := range pkgs {
		if p.Types != nil {
			scope := p.Types.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok {
						if _, isIface := named.Underlying().(*types.Interface); !isIface {
							cg.concrete = append(cg.concrete, named)
						}
					}
				}
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn = origin(fn)
				cg.nodes[fn] = &FuncNode{Fn: fn, Pkg: p, Decl: fd}
			}
		}
	}
	// Resolve call sites, iterating nodes in deterministic (sorted) order.
	for _, node := range cg.Nodes() {
		if node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		p := node.Pkg
		// callees are the identifiers resolve already handled as the
		// function of a call; every other use of a function is a value.
		callees := map[*ast.Ident]bool{}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				node.Calls = append(node.Calls, cg.resolve(p, x)...)
				switch fun := ast.Unparen(x.Fun).(type) {
				case *ast.Ident:
					callees[fun] = true
				case *ast.SelectorExpr:
					callees[fun.Sel] = true
				}
			case *ast.Ident:
				if fn, ok := p.Info.Uses[x].(*types.Func); ok && !callees[x] {
					if edge, ok := cg.moduleEdge(fn, x.Pos(), false); ok {
						node.Calls = append(node.Calls, edge)
					}
				}
			}
			return true
		})
		sort.SliceStable(node.Calls, func(i, j int) bool {
			return node.Calls[i].Pos < node.Calls[j].Pos
		})
	}
	return cg
}

// origin unwraps an instantiated generic function/method to its generic
// declaration, the identity the graph is keyed by.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// Node returns the graph node for fn (its generic origin), or nil.
func (cg *CallGraph) Node(fn *types.Func) *FuncNode {
	return cg.nodes[origin(fn)]
}

// Nodes returns every node, sorted by position — a deterministic
// whole-graph iteration order.
func (cg *CallGraph) Nodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(cg.nodes))
	for _, n := range cg.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg.ImportPath != out[j].Pkg.ImportPath {
			return out[i].Pkg.ImportPath < out[j].Pkg.ImportPath
		}
		return out[i].Fn.Pos() < out[j].Fn.Pos()
	})
	return out
}

// resolve maps one call expression to its possible module-internal
// callees. Calls into the standard library resolve to nothing: analyzers
// treat stdlib behaviour by name (wall-clock lists, escape output), not by
// body.
func (cg *CallGraph) resolve(p *Package, call *ast.CallExpr) []CallEdge {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			if edge, ok := cg.moduleEdge(fn, call.Pos(), false); ok {
				return []CallEdge{edge}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			callee, _ := sel.Obj().(*types.Func)
			if callee == nil {
				return nil
			}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				var edges []CallEdge
				for _, impl := range cg.implementations(iface, callee.Name()) {
					if edge, ok := cg.moduleEdge(impl, call.Pos(), true); ok {
						edges = append(edges, edge)
					}
				}
				return edges
			}
			if edge, ok := cg.moduleEdge(callee, call.Pos(), false); ok {
				return []CallEdge{edge}
			}
			return nil
		}
		// Package-qualified function call (pkg.Fn).
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			if edge, ok := cg.moduleEdge(fn, call.Pos(), false); ok {
				return []CallEdge{edge}
			}
		}
	}
	return nil
}

// moduleEdge returns an edge to fn when fn is declared in a loaded module
// package.
func (cg *CallGraph) moduleEdge(fn *types.Func, pos token.Pos, viaIface bool) (CallEdge, bool) {
	fn = origin(fn)
	if _, ok := cg.nodes[fn]; !ok {
		return CallEdge{}, false
	}
	return CallEdge{Callee: fn, Pos: pos, ViaInterface: viaIface}, true
}

// implementations resolves an interface method to the matching methods of
// every module type implementing the interface (class-hierarchy analysis).
func (cg *CallGraph) implementations(iface *types.Interface, method string) []*types.Func {
	key := chaKey{iface, method}
	if impls, ok := cg.chaCache[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range cg.concrete {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			impls = append(impls, origin(fn))
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].Pos() < impls[j].Pos() })
	cg.chaCache[key] = impls
	return impls
}

// Reachable walks the graph from roots and returns, for every reachable
// function, the edge by which it was first discovered (roots map to a
// zero edge). The breadth-first order is deterministic: roots in the
// given order, edges in source order.
type ReachEntry struct {
	// From is the caller that first reached this function (nil for roots).
	From *types.Func
	// Pos is the call site that first reached it.
	Pos token.Pos
}

// Reachable computes the functions reachable from roots.
func (cg *CallGraph) Reachable(roots []*types.Func) map[*types.Func]ReachEntry {
	reached := map[*types.Func]ReachEntry{}
	var queue []*types.Func
	for _, fn := range roots {
		fn = origin(fn)
		if _, ok := reached[fn]; !ok {
			reached[fn] = ReachEntry{}
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := cg.nodes[fn]
		if node == nil {
			continue
		}
		for _, edge := range node.Calls {
			if _, ok := reached[edge.Callee]; !ok {
				reached[edge.Callee] = ReachEntry{From: fn, Pos: edge.Pos}
				queue = append(queue, edge.Callee)
			}
		}
	}
	return reached
}

// Chain renders the discovery path from a root to fn as
// "root → ... → fn", using the entries produced by Reachable.
func Chain(reached map[*types.Func]ReachEntry, fn *types.Func) string {
	var names []string
	for cur := origin(fn); cur != nil; {
		names = append(names, funcName(cur))
		cur = reached[cur].From
	}
	// Reverse into root-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " -> "
		}
		out += n
	}
	return out
}

// funcName renders fn as "pkg.Fn" or "pkg.(*T).M".
func funcName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		if i := lastSlash(path); i >= 0 {
			path = path[i+1:]
		}
		pkg = path + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}
