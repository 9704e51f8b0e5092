package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CounterOwnership enforces the single-writer discipline of the counter
// groups: a field reached through a struct type named `<group>Counters`
// (directly, through a pointer, or promoted through a record that embeds
// the group, as checkpoint.CoreStats does) may only be written, by `=`,
// `op=`, `++` or `--` and array elements included, from the files that
// own the group. Ownership defaults to `stage_<group>.go`, the group name
// lower-cased (RetireCounters → stage_retire.go); a `//lint:owner file.go
// [file.go ...]` directive in the group type's doc comment replaces the
// owner set (the pipe group is owned by core.go's cycle loop, the prefetch
// group is shared by the two stages that enqueue prefetches). Owners are
// file names in the writing package, wherever the group is declared:
// internal/checkpoint declares the core's and the uncore's groups, and
// internal/core and internal/uncore write them. Reads are unrestricted.
//
// The per-package pass exports the package's group declarations and its
// writes as a fact; the program pass matches them, so a group declared in
// a package outside the run is not checked.
type CounterOwnership struct{}

// Name implements Analyzer.
func (*CounterOwnership) Name() string { return "counterownership" }

// Doc implements Analyzer.
func (*CounterOwnership) Doc() string {
	return "counter fields are written only from the files that own their group"
}

const groupSuffix = "Counters"

// counterFact is one package's group declarations (type key → owner
// files) and counter writes.
type counterFact struct {
	groups map[string]map[string]bool
	writes []counterWrite
}

// counterWrite is one write to a field of a group.
type counterWrite struct {
	pos   token.Pos
	file  string
	group *types.TypeName
	field string
}

// Check implements Analyzer.
func (c *CounterOwnership) Check(p *Package, rep *Reporter) {
	fact := &counterFact{groups: c.ownership(p)}
	write := func(lhs ast.Expr) {
		if group, field := counterGroup(p, lhs); group != nil {
			fact.writes = append(fact.writes, counterWrite{lhs.Pos(), p.FileOf(lhs.Pos()), group, field})
		}
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
			}
			return true
		})
	}
	rep.Facts().ExportPackageFact(c.Name(), p.ImportPath, fact)
}

// CheckProgram implements WholeProgram: every write must come from a file
// that owns the written group.
func (c *CounterOwnership) CheckProgram(prog *Program, rep *Reporter) {
	facts := prog.Facts.AllPackageFacts(c.Name())
	owners := map[string]map[string]bool{}
	for _, f := range facts {
		for group, allowed := range f.Fact.(*counterFact).groups {
			owners[group] = allowed
		}
	}
	for _, f := range facts {
		for _, w := range f.Fact.(*counterFact).writes {
			allowed, known := owners[w.group.Pkg().Path()+"."+w.group.Name()]
			if known && !allowed[w.file] {
				rep.Reportf(c.Name(), w.pos,
					"counter %s.%s written in %s, but group %s is owned by %s",
					w.group.Name(), w.field, w.file, w.group.Name(), ownerList(allowed))
			}
		}
	}
}

// ownership builds group type key → allowed files from the package's
// `<group>Counters` struct declarations.
func (c *CounterOwnership) ownership(p *Package) map[string]map[string]bool {
	owners := map[string]map[string]bool{}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !isGroupName(ts.Name.Name) {
					continue
				}
				if _, ok := ts.Type.(*ast.StructType); !ok {
					continue
				}
				group := strings.ToLower(strings.TrimSuffix(ts.Name.Name, groupSuffix))
				allowed := map[string]bool{"stage_" + group + ".go": true}
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc} {
					if files := ownerDirective(doc); files != nil {
						allowed = map[string]bool{}
						for _, f := range files {
							allowed[f] = true
						}
					}
				}
				owners[p.ImportPath+"."+ts.Name.Name] = allowed
			}
		}
	}
	return owners
}

func isGroupName(name string) bool {
	return strings.HasSuffix(name, groupSuffix) && len(name) > len(groupSuffix)
}

// counterGroup returns the group and field an assignment target writes:
// the first field, walking from the target inwards through selectors,
// indexes and dereferences, that a `<group>Counters` struct declares.
func counterGroup(p *Package, e ast.Expr) (*types.TypeName, string) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := p.Info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return nil, ""
			}
			if decl := declaringStruct(sel); decl != nil && isGroupName(decl.Obj().Name()) {
				return decl.Obj(), x.Sel.Name
			}
			e = x.X
		default:
			return nil, ""
		}
	}
}

// declaringStruct returns the named struct that declares a field
// selection's field: the receiver itself, or for a promoted field the
// embedded type the promotion path ends in.
func declaringStruct(sel *types.Selection) *types.Named {
	t := sel.Recv()
	path := sel.Index()
	for _, i := range path[:len(path)-1] {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		t = st.Field(i).Type()
	}
	return namedOf(t)
}

// ownerDirective extracts the file list of a `//lint:owner a.go b.go`
// doc-comment directive, or nil.
func ownerDirective(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	for _, line := range doc.List {
		if rest, ok := strings.CutPrefix(line.Text, "//lint:owner "); ok {
			return strings.Fields(rest)
		}
	}
	return nil
}

// ownerList renders the allowed-file set for messages, deterministically.
func ownerList(allowed map[string]bool) string {
	names := make([]string, 0, len(allowed))
	for f := range allowed {
		names = append(names, f)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
