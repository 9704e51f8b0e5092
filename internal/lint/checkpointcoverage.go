package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// CheckpointCoverage enforces the checkpoint manifest
// (checkpointManifest and checkpointRoots in a build-ignored
// checkpoint_manifest.go, today internal/core's) against the simulator's
// live state and its capture/restore code:
//
//  1. Manifest completeness — every struct reachable from the checkpoint
//     roots must have a manifest entry, and every field of it a
//     disposition. Reported at the struct/field declaration. The walk
//     stops at <module>/internal/checkpoint's own declarations: a live
//     field of such a type keeps wire state directly, and rules 4 and 5
//     check it.
//  2. Manifest staleness — entries and fields naming structs or fields
//     that no longer exist, and entries the walk never reaches.
//  3. Capture coverage — every field with disposition "state" must be
//     referenced (read for capture, written for restore, or copied whole)
//     by some checkpoint*.go file. Deleting the Capture line for a field
//     fails lint at the field that lost its capture.
//  4. Restore coverage — every "state" field that holds no further live
//     struct (scalars, slices, maps, checkpoint-typed tables) must be
//     written by some checkpoint*.go file: assigned, incremented, the
//     destination of copy or clear, or set by a keyed literal. A restore
//     that stops copying a column fails lint at that field.
//  5. Mirror coverage — every field of every struct reachable from
//     <module>/internal/checkpoint.State, and every field holding such a
//     struct, must be *written* by capture code outside the checkpoint
//     package: a keyed literal, an assignment, or a wholesale clone of a
//     live field of that type (append(T(nil), x.f...), copy's source, or
//     x.f as a literal or assignment value), which writes every field of
//     it. A mirror field nothing populates is a format hole that would
//     silently decode to zero. Reads don't count: a restore that
//     faithfully reads a field the capture stopped writing must still
//     fail lint. Neither do the checkpoint package's own writes — a
//     decoder assigning every field it reads is not a capture — and the
//     package's structs that State does not reach (the codec's plan and
//     buffers, Dir's bookkeeping) are not wire format.
//
// The per-package pass collects which "pkgpath.Type.Field" keys each
// package's checkpoint files touch (exported as a fact); the program pass
// parses the manifest, walks the live types, and cross-checks.
type CheckpointCoverage struct{}

// Name implements Analyzer.
func (*CheckpointCoverage) Name() string { return "checkpointcoverage" }

// Doc implements Analyzer.
func (*CheckpointCoverage) Doc() string {
	return "statically cross-check simulator state structs against the checkpoint manifest, capture/restore code, and the checkpoint mirror tree"
}

// ckptRefsFact records what one package's checkpoint*.go files reference.
type ckptRefsFact struct {
	// fields holds "pkgpath.Type.Field" keys referenced by selection or
	// keyed composite literal.
	fields map[string]bool
	// writes holds the subset of fields that are written: keyed composite
	// literal entries, and selectors in an assignment target or a copy or
	// clear destination.
	writes map[string]bool
	// whole holds "pkgpath.Type" keys captured wholesale: by positional
	// composite literal, or appearing as a value flowing through the
	// capture code.
	whole map[string]bool
	// wholeWrites holds the types whose every field is written: full
	// positional literals, and checkpoint types cloned whole from live
	// state. A struct merely flowing through a read does not populate its
	// fields, so mirror coverage needs the narrower set.
	wholeWrites map[string]bool
	// hasFiles reports whether the package has any checkpoint*.go file.
	hasFiles bool
}

// fullTypeKey renders a named type as "pkgpath.Name" (instantiation
// arguments stripped — Obj().Name() is the bare generic name).
func fullTypeKey(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// manifestTypeKey renders a named type as the manifest keys it: last
// package-path segment + "." + bare name.
func manifestTypeKey(n *types.Named) string {
	pkg := ""
	if n.Obj().Pkg() != nil {
		pkg = n.Obj().Pkg().Path()
		if i := lastSlash(pkg); i >= 0 {
			pkg = pkg[i+1:]
		}
	}
	return pkg + "." + n.Obj().Name()
}

// Check implements Analyzer: it scans the package's checkpoint*.go files
// and exports the set of state fields and whole structs they touch.
func (a *CheckpointCoverage) Check(p *Package, rep *Reporter) {
	fact := &ckptRefsFact{
		fields:      map[string]bool{},
		writes:      map[string]bool{},
		whole:       map[string]bool{},
		wholeWrites: map[string]bool{},
	}
	module := moduleOf(p.ImportPath)
	if p.ImportPath == module+"/internal/checkpoint" {
		// The wire declarations themselves: their codec's writes are not
		// captures, and their methods are not restores.
		return
	}
	for _, f := range p.Files {
		if !isCheckpointFile(p.Fset.Position(f.Pos()).Filename) {
			continue
		}
		fact.hasFiles = true
		a.collectRefs(p, f, module, fact)
	}
	if fact.hasFiles {
		rep.Facts().ExportPackageFact(a.Name(), p.ImportPath, fact)
	}
}

// collectRefs walks one checkpoint file recording field references,
// writes, and whole-struct captures and clones.
func (a *CheckpointCoverage) collectRefs(p *Package, f *ast.File, module string, fact *ckptRefsFact) {
	markWhole := func(t types.Type) {
		for _, n := range walkableNamed(t, module) {
			fact.whole[fullTypeKey(n)] = true
		}
	}
	// markWrites records every field selection inside an assignment target
	// (st.F = ..., st.A[i] = ..., st.N++, copy(st.F, ...)) as a write.
	markWrites := func(lhs ast.Expr) {
		ast.Inspect(lhs, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel, ok := p.Info.Selections[se]; ok && sel.Kind() == types.FieldVal {
				if recv := namedOf(sel.Recv()); recv != nil {
					fact.writes[fullTypeKey(recv)+"."+sel.Obj().Name()] = true
				}
			}
			return true
		})
	}
	ckptPkg := module + "/internal/checkpoint"
	// fromLive strips indexing, slicing, derefs and parens and reports
	// whether what remains is a field of a live (non-checkpoint) struct.
	var fromLive func(e ast.Expr) bool
	fromLive = func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.ParenExpr:
			return fromLive(x.X)
		case *ast.IndexExpr:
			return fromLive(x.X)
		case *ast.SliceExpr:
			return fromLive(x.X)
		case *ast.StarExpr:
			return fromLive(x.X)
		case *ast.SelectorExpr:
			sel, ok := p.Info.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return false
			}
			recv := namedOf(sel.Recv())
			return recv != nil && recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() != ckptPkg
		}
		return false
	}
	// markClone records a wholesale clone of e: a live value of a
	// checkpoint type copied as a whole populates every field of it.
	markClone := func(e ast.Expr) {
		if !fromLive(e) {
			return
		}
		for _, n := range walkableNamed(p.Info.TypeOf(e), module) {
			if n.Obj().Pkg().Path() == ckptPkg {
				fact.wholeWrites[fullTypeKey(n)] = true
			}
		}
	}
	builtin := func(call *ast.CallExpr) string {
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
				return b.Name()
			}
		}
		return ""
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				markWrites(lhs)
			}
			for _, rhs := range node.Rhs {
				markClone(rhs)
			}
		case *ast.KeyValueExpr:
			markClone(node.Value)
		case *ast.IncDecStmt:
			markWrites(node.X)
		case *ast.SelectorExpr:
			sel, ok := p.Info.Selections[node]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			recv := namedOf(sel.Recv())
			if recv == nil {
				return true
			}
			fact.fields[fullTypeKey(recv)+"."+sel.Obj().Name()] = true
			// The selected value itself flows through the capture code:
			// any module struct it leads to is captured wholesale.
			markWhole(sel.Obj().Type())
		case *ast.CompositeLit:
			t := p.Info.TypeOf(node)
			named := namedOf(t)
			if named == nil {
				return true
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			key := fullTypeKey(named)
			keyed := false
			for _, elt := range node.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					keyed = true
					fact.fields[key+"."+id.Name] = true
					fact.writes[key+"."+id.Name] = true
				}
			}
			// A positional struct literal must mention every field.
			if !keyed && len(node.Elts) == st.NumFields() {
				fact.whole[key] = true
				fact.wholeWrites[key] = true
			}
		case *ast.CallExpr:
			switch builtin(node) {
			case "copy":
				markWrites(node.Args[0])
				markClone(node.Args[1])
			case "clear":
				markWrites(node.Args[0])
			case "append":
				if node.Ellipsis.IsValid() {
					markClone(node.Args[len(node.Args)-1])
				}
			}
		}
		return true
	})
}

// walkableNamed unwraps aliases, pointers and containers down to the
// module's named struct types a value of type t can lead to.
func walkableNamed(t types.Type, module string) []*types.Named {
	switch u := types.Unalias(t).(type) {
	case *types.Pointer:
		return walkableNamed(u.Elem(), module)
	case *types.Slice:
		return walkableNamed(u.Elem(), module)
	case *types.Array:
		return walkableNamed(u.Elem(), module)
	case *types.Map:
		return append(walkableNamed(u.Key(), module), walkableNamed(u.Elem(), module)...)
	case *types.Named:
		if _, ok := u.Underlying().(*types.Struct); ok {
			if pkg := u.Obj().Pkg(); pkg != nil && strings.HasPrefix(pkg.Path(), module+"/") {
				return []*types.Named{u}
			}
			return nil
		}
		// Named non-struct (e.g. checkpoint.Bitmask []byte): walk like its
		// underlying shape, as reflect.Kind would.
		return walkableNamed(u.Underlying(), module)
	}
	return nil
}

// manifestField is one "field": "disposition" manifest line.
type manifestField struct {
	disp string
	pos  token.Pos
}

// manifestEntry is one struct's manifest block.
type manifestEntry struct {
	pos    token.Pos
	fields map[string]manifestField
}

// manifest is a parsed checkpointManifest plus the walk roots.
type manifest struct {
	entries map[string]manifestEntry
	// roots are the type expressions inside reflect.TypeOf(...) calls in
	// checkpointRoots, with the package that hosts the manifest file (whose
	// scope and imports resolve them).
	roots []rootExpr
	// imports maps qualifier -> import path, from the manifest file.
	imports map[string]string
	home    *Package
	// file is the path of the (first) manifest file, for messages.
	file string
}

type rootExpr struct {
	expr ast.Expr
	pos  token.Pos
}

// CheckProgram implements WholeProgram.
func (a *CheckpointCoverage) CheckProgram(prog *Program, rep *Reporter) {
	man := a.parseManifests(prog)
	if man == nil {
		return
	}

	// Union the per-package reference facts: unexported fields can only be
	// referenced from their declaring package, so locality is enforced by
	// the language, not by this analyzer.
	refFields := map[string]bool{}
	refWrites := map[string]bool{}
	refWhole := map[string]bool{}
	refWholeWrites := map[string]bool{}
	anyCkptFiles := false
	for _, entry := range prog.Facts.AllPackageFacts(a.Name()) {
		fact := entry.Fact.(*ckptRefsFact)
		anyCkptFiles = anyCkptFiles || fact.hasFiles
		for k := range fact.fields {
			refFields[k] = true
		}
		for k := range fact.writes {
			refWrites[k] = true
		}
		for k := range fact.whole {
			refWhole[k] = true
		}
		for k := range fact.wholeWrites {
			refWholeWrites[k] = true
		}
	}

	// liveStructs unwraps t to the live structs it holds: the walk stops
	// at the checkpoint package's declarations, which are wire state.
	ckptPkg := prog.Module + "/internal/checkpoint"
	liveStructs := func(t types.Type) []*types.Named {
		var out []*types.Named
		for _, n := range walkableNamed(t, prog.Module) {
			if n.Obj().Pkg().Path() != ckptPkg {
				out = append(out, n)
			}
		}
		return out
	}

	// Walk the live state from the roots.
	type stateField struct {
		named *types.Named
		key   string
		fld   *types.Var
		// leaf marks a field holding no further live struct: its restore
		// must write it directly.
		leaf bool
	}
	var queue []*types.Named
	for _, root := range man.roots {
		named := a.resolveRoot(prog, man, root)
		if named == nil {
			rep.Reportf(a.Name(), root.pos, "cannot resolve checkpoint root %s to a loaded struct type", exprString(root.expr))
			continue
		}
		queue = append(queue, named)
	}
	visited := map[*types.Named]bool{}
	reached := map[string]bool{}
	reportedStruct := map[string]bool{}
	reportedField := map[string]bool{}
	var stateFields []stateField
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		if visited[named] {
			continue
		}
		visited[named] = true
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		key := manifestTypeKey(named)
		reached[key] = true
		entry, ok := man.entries[key]
		if !ok {
			if !reportedStruct[key] {
				reportedStruct[key] = true
				rep.Reportf(a.Name(), named.Obj().Pos(),
					"struct %s is reached by the checkpoint walk but has no entry in the checkpoint manifest (%s): decide a disposition for each field",
					key, relPath(prog.Root, man.file))
			}
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			mf, ok := entry.fields[fld.Name()]
			if !ok {
				fk := key + "." + fld.Name()
				if !reportedField[fk] {
					reportedField[fk] = true
					rep.Reportf(a.Name(), fld.Pos(),
						"field %s.%s (%s) is not in the checkpoint manifest — capture it in the checkpoint format or record why it can be skipped",
						key, fld.Name(), fld.Type().String())
				}
				continue
			}
			if mf.disp != "state" {
				continue
			}
			sub := liveStructs(fld.Type())
			queue = append(queue, sub...)
			// An interface field's state lives in its implementations,
			// which are roots of their own.
			_, iface := fld.Type().Underlying().(*types.Interface)
			stateFields = append(stateFields, stateField{named: named, key: key, fld: fld, leaf: len(sub) == 0 && !iface})
		}
		// Stale manifest fields: listed but no longer on the struct.
		var names []string
		for name := range entry.fields {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if !structHasField(st, name) {
				fk := key + "." + name + " (stale)"
				if !reportedField[fk] {
					reportedField[fk] = true
					rep.Reportf(a.Name(), entry.fields[name].pos,
						"manifest lists %s.%s but the struct has no such field (stale entry)", key, name)
				}
			}
		}
	}

	// Manifest entries the walk never reached.
	var keys []string
	for key := range man.entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !reached[key] {
			rep.Reportf(a.Name(), man.entries[key].pos,
				"manifest entry %s was never reached by the checkpoint walk (stale type, or a root is missing)", key)
		}
	}

	// Capture coverage: every state field must be touched by checkpoint
	// code somewhere. Only meaningful once the repo has capture code at all
	// (a manifest without any checkpoint*.go file is checked for shape only).
	if anyCkptFiles {
		seen := map[string]bool{}
		for _, sf := range stateFields {
			full := fullTypeKey(sf.named)
			fk := full + "." + sf.fld.Name()
			if seen[fk] {
				continue
			}
			seen[fk] = true
			if !refFields[fk] && !refWhole[full] {
				rep.Reportf(a.Name(), sf.fld.Pos(),
					"field %s.%s is marked state in the checkpoint manifest but no checkpoint*.go file references it — capture it in Capture/Restore (or fix its disposition)",
					sf.key, sf.fld.Name())
				continue
			}
			if sf.leaf && !refWrites[fk] && !refWholeWrites[full] {
				rep.Reportf(a.Name(), sf.fld.Pos(),
					"field %s.%s is marked state in the checkpoint manifest but no checkpoint*.go file writes it — restore it (or fix its disposition)",
					sf.key, sf.fld.Name())
			}
		}
	}

	// Mirror coverage: every field of every struct in the checkpoint
	// package must be populated by some capture write.
	a.checkMirror(prog, rep, refWrites, refWholeWrites)
}

// checkMirror verifies the mirror tree — the structs of the
// <module>/internal/checkpoint package reachable from its State type —
// against the union of capture-side writes.
func (a *CheckpointCoverage) checkMirror(prog *Program, rep *Reporter, refWrites, refWholeWrites map[string]bool) {
	ckpt := prog.PackageByPath(prog.Module + "/internal/checkpoint")
	if ckpt == nil || ckpt.Types == nil {
		return
	}
	root, ok := ckpt.Types.Scope().Lookup("State").(*types.TypeName)
	if !ok {
		return
	}
	// mirrorStructs unwraps t to the checkpoint package's structs it holds.
	mirrorStructs := func(t types.Type) []*types.Named {
		var out []*types.Named
		for _, n := range walkableNamed(t, prog.Module) {
			if n.Obj().Pkg().Path() == ckpt.ImportPath {
				out = append(out, n)
			}
		}
		return out
	}
	queue := mirrorStructs(root.Type())
	visited := map[*types.Named]bool{}
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		if visited[named] {
			continue
		}
		visited[named] = true
		st := named.Underlying().(*types.Struct)
		full := fullTypeKey(named)
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			// A mirror field whose type is itself a mirror struct (or leads
			// to one) is populated through that struct's own fields too.
			queue = append(queue, mirrorStructs(fld.Type())...)
			if refWholeWrites[full] || refWrites[full+"."+fld.Name()] {
				continue
			}
			rep.Reportf(a.Name(), fld.Pos(),
				"checkpoint mirror field %s.%s is never written by any capture code: dead format field, or a capture is missing",
				named.Obj().Name(), fld.Name())
		}
	}
}

// structHasField reports whether st declares (or embeds at the top level) a
// field with the given name.
func structHasField(st *types.Struct, name string) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}

// manifestFile names the build-ignored file holding a package's
// checkpointManifest and checkpointRoots.
const manifestFile = "checkpoint_manifest.go"

// parseManifests finds and parses every manifestFile next to a loaded
// package, merging manifests (nil when none exists).
func (a *CheckpointCoverage) parseManifests(prog *Program) *manifest {
	var man *manifest
	for _, p := range prog.Packages {
		path := filepath.Join(p.Dir, manifestFile)
		if _, err := os.Stat(path); err != nil {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		m := a.parseManifestFile(prog, p, f)
		if m == nil {
			continue
		}
		m.file = path
		if man == nil {
			man = m
			continue
		}
		for k, v := range m.entries {
			man.entries[k] = v
		}
		man.roots = append(man.roots, m.roots...)
		for k, v := range m.imports {
			man.imports[k] = v
		}
	}
	return man
}

// parseManifestFile extracts checkpointManifest and checkpointRoots from
// one parsed manifest file; nil when the file declares neither.
func (a *CheckpointCoverage) parseManifestFile(prog *Program, home *Package, f *ast.File) *manifest {
	man := &manifest{entries: map[string]manifestEntry{}, imports: map[string]string{}, home: home}
	for _, imp := range f.Imports {
		path := importPath(imp)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		} else if p := prog.PackageByPath(path); p != nil && p.Types != nil {
			name = p.Types.Name()
		} else if i := lastSlash(path); i >= 0 {
			name = path[i+1:]
		} else {
			name = path
		}
		man.imports[name] = path
	}
	found := false
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "checkpointManifest" || len(vs.Values) != 1 {
					continue
				}
				lit, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					continue
				}
				a.parseManifestLit(lit, man)
				found = true
			}
		case *ast.FuncDecl:
			if d.Name.Name != "checkpointRoots" || d.Body == nil {
				continue
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "TypeOf" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "reflect" {
					return true
				}
				cl, ok := call.Args[0].(*ast.CompositeLit)
				if !ok {
					return true
				}
				man.roots = append(man.roots, rootExpr{expr: cl.Type, pos: cl.Pos()})
				found = true
				return true
			})
		}
	}
	if !found {
		return nil
	}
	return man
}

// parseManifestLit walks the map[string]map[string]string literal.
func (a *CheckpointCoverage) parseManifestLit(lit *ast.CompositeLit, man *manifest) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := stringLit(kv.Key)
		if !ok {
			continue
		}
		inner, ok := kv.Value.(*ast.CompositeLit)
		if !ok {
			continue
		}
		entry := manifestEntry{pos: kv.Key.Pos(), fields: map[string]manifestField{}}
		for _, felt := range inner.Elts {
			fkv, ok := felt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			fname, ok := stringLit(fkv.Key)
			if !ok {
				continue
			}
			disp, ok := stringLit(fkv.Value)
			if !ok {
				continue
			}
			entry.fields[fname] = manifestField{disp: disp, pos: fkv.Key.Pos()}
		}
		man.entries[key] = entry
	}
}

// resolveRoot resolves a checkpointRoots type expression (Ident or
// pkg.Ident) to the named type it denotes.
func (a *CheckpointCoverage) resolveRoot(prog *Program, man *manifest, root rootExpr) *types.Named {
	lookup := func(scope *types.Scope, name string) *types.Named {
		if scope == nil {
			return nil
		}
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			return nil
		}
		named, _ := tn.Type().(*types.Named)
		return named
	}
	switch e := root.expr.(type) {
	case *ast.Ident:
		if man.home.Types == nil {
			return nil
		}
		return lookup(man.home.Types.Scope(), e.Name)
	case *ast.SelectorExpr:
		qual, ok := e.X.(*ast.Ident)
		if !ok {
			return nil
		}
		path, ok := man.imports[qual.Name]
		if !ok {
			return nil
		}
		p := prog.PackageByPath(path)
		if p == nil || p.Types == nil {
			return nil
		}
		return lookup(p.Types.Scope(), e.Sel.Name)
	}
	return nil
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	bl, ok := e.(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// relPath renders path relative to root when possible.
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
