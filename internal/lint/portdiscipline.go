package lint

import (
	"go/ast"
)

// PortDiscipline enforces the memory-hierarchy access discipline: outside
// internal/mem and internal/cache, no code may call cache internals
// directly. All instruction and data traffic flows through mem.Port (Send)
// — the hierarchy's InstPort and DataPort — which is where latency
// accounting, MSHR reservation, and the priority plumbing live; a direct
// cache call would bypass all three.
type PortDiscipline struct{}

// Name implements Analyzer.
func (*PortDiscipline) Name() string { return "portdiscipline" }

// Doc implements Analyzer.
func (*PortDiscipline) Doc() string {
	return "memory traffic outside internal/mem and internal/cache must go through mem.Port"
}

// cacheInternalMethods are the cache.Cache methods that constitute direct
// cache traffic or state manipulation.
var cacheInternalMethods = map[string]bool{
	"Access": true, "Fill": true, "Contains": true,
	"MSHRFree": true, "EarliestMSHRFree": true, "Promote": true,
}

// Check implements Analyzer.
func (d *PortDiscipline) Check(p *Package, rep *Reporter) {
	module := moduleOf(p.ImportPath)
	cachePkg := module + "/internal/cache"
	memPkg := module + "/internal/mem"
	switch p.ImportPath {
	case cachePkg, memPkg:
		return // the hierarchy layers themselves own the cache internals
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			_, recvType, method, ok := methodCall(p, call)
			if !ok || !cacheInternalMethods[method] {
				return true
			}
			if pkg, name := typeDeclPkg(recvType); pkg == cachePkg && name == "Cache" {
				rep.Reportf(d.Name(), call.Pos(),
					"direct cache.Cache.%s call outside %s: route traffic through mem.Port.Send (Hierarchy.InstPort/DataPort)",
					method, "internal/mem")
			}
			return true
		})
	}
}
