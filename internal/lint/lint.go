// Package lint is a small static-analysis framework, built on the
// standard library's go/parser, go/ast, and go/types only (no x/tools),
// that enforces the simulator's correctness contracts at the line that
// would break them:
//
//   - determinism: no wall-clock time, no global RNG, no goroutines, and
//     no map-iteration-order dependence in any importable (non-main)
//     package — the contracts behind bit-identical deterministic replay
//     (DESIGN.md §Observability), flagged where they are broken.
//   - counterownership: every metrics counter is incremented only by the
//     pipeline stage that owns its group (internal/core/metrics.go).
//   - portdiscipline: all memory traffic flows through mem.Port; nothing
//     outside internal/mem and internal/cache calls cache internals
//     directly.
//   - tenantnamespace: per-tenant metric namespaces are minted only by
//     their owner — uncore.* inside internal/uncore, tenantN.* by nobody
//     (it is synthesized at snapshot-merge time) — so no core-private
//     package can charge counters to another tenant's bill.
//   - checkpointcoverage: the static twin of the reflection-manifest
//     completeness test — every persistent field of every simulator state
//     struct must be captured by its package's checkpoint files, and every
//     field of the checkpoint mirror tree must be written by some capture.
//   - allocfree: the static twin of the perf-smoke zero-alloc gate —
//     no heap allocation (per the compiler's own escape analysis) may be
//     reachable through the call graph from a //lint:hotpath function.
//
// The last two are whole-program analyzers (WholeProgram): they run over
// a Program — every loaded package plus the package graph, the call graph,
// and a facts store the per-package passes export into — mirroring the
// shape of x/tools/go/analysis facts without the dependency.
//
// Diagnostics can be suppressed with a `//lint:ignore <analyzer> <reason>`
// comment on the offending line or the line directly above it; the reason
// is mandatory so every suppression documents why the contract does not
// apply. A suppression that no longer suppresses anything is itself
// reported (analyzer name "staleignore"), keeping the suppression
// inventory honest.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one repo-specific static check.
type Analyzer interface {
	// Name is the analyzer's identifier, used in output and in
	// //lint:ignore directives.
	Name() string
	// Doc is a one-line description of the enforced contract.
	Doc() string
	// Check inspects one type-checked package and reports violations.
	// Whole-program analyzers use this pass to export per-package facts.
	Check(p *Package, r *Reporter)
}

// WholeProgram is implemented by analyzers that need the cross-package
// view: the package graph, the call graph, and the facts exported by the
// per-package passes. CheckProgram runs once, after Check has run on every
// package.
type WholeProgram interface {
	Analyzer
	CheckProgram(prog *Program, r *Reporter)
}

// All returns every registered analyzer, in stable order.
func All() []Analyzer {
	return []Analyzer{
		&Determinism{},
		&CounterOwnership{},
		&PortDiscipline{},
		&TenantNamespace{},
		&CheckpointCoverage{},
		&AllocFree{},
	}
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Analyzer names the check that fired.
	Analyzer string
	// Pos locates the violation.
	Pos token.Position
	// Message describes the violation and the sanctioned alternative.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// directive is one parsed //lint:ignore suppression. Used tracks whether
// it suppressed anything this run; an unused directive is stale and
// reported by ReportStale.
type directive struct {
	name string
	pos  token.Position
	used bool
}

// Reporter collects diagnostics across every loaded package, applying
// //lint:ignore suppression. One Reporter serves a whole Run so that
// whole-program analyzers share the same suppression index — and so that
// directive usage can be accounted globally for stale-suppression
// reporting.
type Reporter struct {
	fset  *token.FileSet
	files []*ast.File
	diag  []Diagnostic
	// ignores maps filename -> line -> directives suppressing there
	// (a directive covers its own line and the next).
	ignores map[string]map[int][]*directive
	// facts is the cross-package facts store the per-package passes export
	// into; Run points it at the Program's store.
	facts *Facts
}

// Facts returns the run's cross-package facts store.
func (r *Reporter) Facts() *Facts { return r.facts }

// NewReporter builds a reporter over pkgs, indexing their ignore
// directives. All packages must share one FileSet (the loader guarantees
// this).
func NewReporter(pkgs []*Package) *Reporter {
	r := &Reporter{ignores: map[string]map[int][]*directive{}, facts: NewFacts()}
	for _, p := range pkgs {
		if r.fset == nil {
			r.fset = p.Fset
		}
		for _, f := range p.Files {
			r.files = append(r.files, f)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					name, ok := parseIgnore(c.Text)
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					m := r.ignores[pos.Filename]
					if m == nil {
						m = map[int][]*directive{}
						r.ignores[pos.Filename] = m
					}
					d := &directive{name: name, pos: pos}
					// The directive covers its own line (trailing comment)
					// and the next line (directive-above-statement form).
					m[pos.Line] = append(m[pos.Line], d)
					m[pos.Line+1] = append(m[pos.Line+1], d)
				}
			}
		}
	}
	return r
}

// parseIgnore recognises `//lint:ignore <analyzer> <reason>` and returns
// the analyzer name. A directive without a reason is not honoured:
// undocumented suppressions are themselves a contract violation, reported
// by CheckDirectives.
func parseIgnore(text string) (string, bool) {
	const prefix = "//lint:ignore "
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	fields := strings.Fields(text[len(prefix):])
	if len(fields) < 2 { // analyzer name plus at least one reason word
		return "", false
	}
	return fields[0], true
}

// CheckDirectives reports malformed //lint:ignore directives (missing
// analyzer name or missing reason) so suppressions stay documented.
func (r *Reporter) CheckDirectives() {
	for _, f := range r.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:ignore") {
					continue
				}
				if _, ok := parseIgnore(c.Text); !ok {
					r.diag = append(r.diag, Diagnostic{
						Analyzer: "lint",
						Pos:      r.fset.Position(c.Pos()),
						Message:  "malformed //lint:ignore directive: want `//lint:ignore <analyzer> <reason>`",
					})
				}
			}
		}
	}
}

// suppressed reports whether an ignore directive for analyzer covers pos,
// marking any matching directive as used.
func (r *Reporter) suppressed(analyzer string, pos token.Pos) bool {
	p := r.fset.Position(pos)
	hit := false
	for _, d := range r.ignores[p.Filename][p.Line] {
		if d.name == analyzer || d.name == "all" {
			d.used = true
			hit = true
		}
	}
	return hit
}

// Reportf records a diagnostic at pos unless an ignore directive covers it.
func (r *Reporter) Reportf(analyzer string, pos token.Pos, format string, args ...any) {
	if r.suppressed(analyzer, pos) {
		return
	}
	r.diag = append(r.diag, Diagnostic{
		Analyzer: analyzer,
		Pos:      r.fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportStale reports every //lint:ignore directive that suppressed
// nothing this run: the violation it once covered is gone, so the
// directive is dead weight that would silently swallow a future, different
// violation on that line. Call after every analyzer has run.
func (r *Reporter) ReportStale() {
	seen := map[*directive]bool{}
	var stale []*directive
	for _, byLine := range r.ignores {
		for _, ds := range byLine {
			for _, d := range ds {
				if !seen[d] {
					seen[d] = true
					if !d.used {
						stale = append(stale, d)
					}
				}
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i].pos, stale[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, d := range stale {
		r.diag = append(r.diag, Diagnostic{
			Analyzer: "staleignore",
			Pos:      d.pos,
			Message: fmt.Sprintf("stale suppression: [%s] no longer fires here — remove the //lint:ignore directive (it would silently swallow a future violation)",
				d.name),
		})
	}
}

// Diagnostics returns the collected diagnostics sorted by file, line,
// column, then analyzer — a stable order independent of check order.
func (r *Reporter) Diagnostics() []Diagnostic {
	sort.Slice(r.diag, func(i, j int) bool {
		a, b := r.diag[i], r.diag[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return r.diag
}

// Run executes every analyzer over the program: the per-package passes
// first (exporting facts), then the whole-program passes, then the
// stale-suppression sweep. Diagnostics come back in stable order.
func Run(prog *Program, analyzers []Analyzer) []Diagnostic {
	rep := NewReporter(prog.Packages)
	rep.facts = prog.Facts
	rep.CheckDirectives()
	for _, a := range analyzers {
		for _, p := range prog.Packages {
			a.Check(p, rep)
		}
	}
	for _, a := range analyzers {
		if wp, ok := a.(WholeProgram); ok {
			wp.CheckProgram(prog, rep)
		}
	}
	rep.ReportStale()
	return rep.Diagnostics()
}

// FileOf returns the base filename containing pos.
func (p *Package) FileOf(pos token.Pos) string {
	full := p.Fset.Position(pos).Filename
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}

// enclosingFunc returns the innermost function literal or declaration body
// in file that contains pos, or nil.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			return false
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				body = fn.Body
			}
		case *ast.FuncLit:
			body = fn.Body
		}
		return true
	})
	return body
}
