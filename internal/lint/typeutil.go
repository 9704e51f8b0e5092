package lint

import (
	"go/ast"
	"go/types"
)

// namedOf unwraps pointers and returns the named type behind t, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// typeDeclPkg returns the declaring package path and type name of t (after
// pointer unwrapping), or "","" when t is not a named type.
func typeDeclPkg(t types.Type) (pkgPath, name string) {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Pkg().Path(), n.Obj().Name()
}

// methodCall decomposes call into (receiver expression, receiver type,
// method name) when call is a method call through a selector; ok is false
// for plain function calls, package-qualified calls, and conversions.
func methodCall(p *Package, call *ast.CallExpr) (recv ast.Expr, recvType types.Type, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, "", false
	}
	s, isMethod := p.Info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return nil, nil, "", false
	}
	return sel.X, s.Recv(), sel.Sel.Name, true
}

// pkgFuncCall returns the package path and function name when call invokes
// a package-level function through a package qualifier (fmt.Println,
// sort.Strings, ...).
func pkgFuncCall(p *Package, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// objOf resolves the object an identifier refers to (use or definition).
func objOf(p *Package, id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}
