package lint

import (
	"go/ast"
	"go/constant"
	"strings"
)

// TenantNamespace enforces the metric-attribution contract of multi-tenant
// sockets (internal/uncore, internal/core/socket.go): per-tenant metric
// namespaces belong to exactly one writer.
//
//   - Names under "uncore." may only be registered or minted inside
//     internal/uncore — the shared levels are the one component allowed to
//     attribute traffic to tenants, and a core-private package registering
//     under "uncore." would charge its counters to another tenant's bill.
//   - Names under "tenant<i>." may not be registered anywhere: that prefix
//     is synthesized by Socket.CombinedSnapshot when it merges the
//     tenants' snapshots, so a registered "tenantN." name would collide
//     with (or masquerade as) another tenant's namespaced counters.
//
// The check fires on the name argument of the metrics.Registry
// registration methods (Counter, Gauge) whenever it is resolvable at lint
// time: a constant string (including concatenations) or a fmt.Sprintf
// whose format string is constant.
type TenantNamespace struct{}

// Name implements Analyzer.
func (*TenantNamespace) Name() string { return "tenantnamespace" }

// Doc implements Analyzer.
func (*TenantNamespace) Doc() string {
	return "per-tenant metric namespaces are minted only by their owner (uncore.* by internal/uncore, tenantN.* by nobody)"
}

// registerMethods are the metrics.Registry methods that mint a name.
var registerMethods = map[string]bool{"Counter": true, "Gauge": true}

// Check implements Analyzer.
func (c *TenantNamespace) Check(p *Package, rep *Reporter) {
	module := moduleOf(p.ImportPath)
	metricsPkg := module + "/internal/metrics"
	uncorePkg := module + "/internal/uncore"

	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			_, recvType, method, ok := methodCall(p, call)
			if !ok || !registerMethods[method] {
				return true
			}
			if pkg, typ := typeDeclPkg(recvType); pkg != metricsPkg || typ != "Registry" {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			name, ok := c.nameOf(p, call.Args[0])
			if !ok {
				return true
			}
			switch {
			case strings.HasPrefix(name, "uncore.") && p.ImportPath != uncorePkg:
				rep.Reportf(c.Name(), call.Pos(),
					"metric %q registered outside internal/uncore: the uncore.* namespace carries shared-level tenant attribution and is minted only there",
					name)
			case isTenantPrefixed(name):
				rep.Reportf(c.Name(), call.Pos(),
					"metric %q registered under the reserved tenantN.* namespace: that prefix is synthesized by Socket.CombinedSnapshot and must never be registered",
					name)
			}
			return true
		})
	}
}

// nameOf resolves a registration-name expression to a string usable for
// prefix checks: an exact constant string (covering literals and folded
// concatenations), or the constant format string of a fmt.Sprintf cut at
// its first verb (so "uncore.tenant%d.requests" still reveals the
// namespace it mints into).
func (c *TenantNamespace) nameOf(p *Package, e ast.Expr) (string, bool) {
	if s, ok := constString(p, e); ok {
		return s, true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	pkg, fn, ok := pkgFuncCall(p, call)
	if !ok || pkg != "fmt" || fn != "Sprintf" || len(call.Args) == 0 {
		return "", false
	}
	format, ok := constString(p, call.Args[0])
	if !ok {
		return "", false
	}
	// Keep the verb's '%' so "tenant%d..." still reads as minting into
	// the reserved namespace after the cut.
	if i := strings.IndexByte(format, '%'); i >= 0 {
		format = format[:i+1]
	}
	return format, true
}

// isTenantPrefixed reports whether name mints into the reserved
// "tenant<i>." namespace: "tenant" followed by a digit (literal index) or
// a '%' (an Sprintf verb about to become one).
func isTenantPrefixed(name string) bool {
	rest, ok := strings.CutPrefix(name, "tenant")
	if !ok || rest == "" {
		return false
	}
	return (rest[0] >= '0' && rest[0] <= '9') || rest[0] == '%'
}

// constString extracts an exact string from a constant expression value.
func constString(p *Package, e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
