package lint

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// EscapeDiag is one compiler escape-analysis diagnostic (-gcflags=-m).
type EscapeDiag struct {
	// File is the absolute path of the source file.
	File string
	// Line and Col locate the diagnostic (1-based, as the compiler
	// reports them).
	Line, Col int
	// Message is the compiler's text ("make([]int, n) escapes to heap",
	// "moved to heap: x", "can inline f", ...).
	Message string
}

// IsHeapAlloc reports whether the diagnostic marks a heap allocation
// site, as opposed to inlining chatter or non-escaping analysis results.
// A constant string "escaping" to heap is excluded: the payload is interned
// static data (the shape panic("msg") and log-message arguments produce),
// so no per-operation allocation happens — and because inlining attributes
// the diagnostic to the call site, a syntactic panic filter could not
// catch these.
func (d EscapeDiag) IsHeapAlloc() bool {
	if strings.HasPrefix(d.Message, "\"") && strings.HasSuffix(d.Message, "\" escapes to heap") {
		return false
	}
	return strings.HasSuffix(d.Message, "escapes to heap") ||
		strings.HasPrefix(d.Message, "moved to heap:")
}

// EscapeSource provides per-package escape-analysis diagnostics. The
// production implementation shells out to `go build`; tests may
// substitute a canned source.
type EscapeSource interface {
	// Diagnostics returns the escape diagnostics for each of the given
	// import paths (all of which must be loaded in prog).
	Diagnostics(prog *Program, paths []string) (map[string][]EscapeDiag, error)
}

// GoBuildEscape obtains escape diagnostics by running
// `go build -gcflags=<pkg>=-m`. It keeps no cache of its own: the go
// build cache replays a package's compiler output, -m diagnostics
// included, until the package or a dependency changes.
type GoBuildEscape struct {
	// Root is the module root (go build's working directory).
	Root string
	// Module is the module path.
	Module string
}

// NewGoBuildEscape returns a runner over the module at root.
func NewGoBuildEscape(root, module string) *GoBuildEscape {
	return &GoBuildEscape{Root: root, Module: module}
}

// Diagnostics implements EscapeSource. The packages are compiled in one
// `go build` invocation; its per-package output sections are parsed and
// returned.
func (g *GoBuildEscape) Diagnostics(prog *Program, paths []string) (map[string][]EscapeDiag, error) {
	for _, path := range paths {
		if prog.PackageByPath(path) == nil {
			return nil, fmt.Errorf("escape: package %s not loaded", path)
		}
	}
	paths = append([]string(nil), paths...)
	sort.Strings(paths)
	sections, err := g.build(paths)
	if err != nil {
		return nil, err
	}
	out := map[string][]EscapeDiag{}
	for _, path := range paths {
		out[path] = g.parseLines(sections[path]) // absent => package compiled silently
	}
	return out, nil
}

// build runs one `go build` over paths with -m enabled for each, and
// splits the compiler output into per-package sections (the go tool
// prefixes each package's output with a "# importpath" header).
func (g *GoBuildEscape) build(paths []string) (map[string][]string, error) {
	args := []string{"build"}
	for _, path := range paths {
		args = append(args, "-gcflags="+path+"=-m")
	}
	args = append(args, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = g.Root
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	outBytes, err := cmd.CombinedOutput()
	lines := strings.Split(string(outBytes), "\n")
	sections := map[string][]string{}
	cur := ""
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			cur = strings.TrimSpace(rest)
			continue
		}
		if line == "" || cur == "" {
			continue
		}
		sections[cur] = append(sections[cur], line)
	}
	if err != nil {
		return nil, fmt.Errorf("escape: go build failed: %w\n%s", err, string(outBytes))
	}
	return sections, nil
}

// parseLines converts raw compiler output lines ("file:line:col: msg",
// file relative to the module root) into diagnostics.
func (g *GoBuildEscape) parseLines(raw []string) []EscapeDiag {
	var out []EscapeDiag
	for _, line := range raw {
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		ln, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		file := parts[0]
		if strings.HasPrefix(file, "<") { // <autogenerated>
			continue
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(g.Root, file)
		}
		out = append(out, EscapeDiag{
			File:    file,
			Line:    ln,
			Col:     col,
			Message: strings.TrimSpace(parts[3]),
		})
	}
	return out
}
