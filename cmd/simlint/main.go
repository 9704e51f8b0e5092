// Command simlint runs the simulator's static-analysis suite: six
// repo-specific analyzers built on the standard library's go/parser,
// go/ast, and go/types only (see internal/lint). determinism,
// counterownership, portdiscipline and tenantnamespace check one package
// at a time; checkpointcoverage and allocfree (the hot-path escape-analysis
// gate) see the whole module at once. It exits 0 when the checked
// packages are clean, 1 when any diagnostic fires, and 2 on load errors.
//
// Usage:
//
//	simlint              # lint the whole module (./...)
//	simlint ./internal/core ./cmd/...
//	simlint -list        # describe the analyzers
//	simlint -json        # machine-readable diagnostics (one JSON array)
//	simlint -github      # GitHub Actions ::error annotations
//	simlint -report      # group diagnostics by analyzer with counts
//
// Inside GitHub Actions (GITHUB_ACTIONS=true), ::error annotations are
// emitted automatically in addition to the normal output, so violations
// surface inline on the pull-request diff.
//
// Diagnostics are printed one per line as file:line:col: [analyzer]
// message, and can be suppressed in source with
// `//lint:ignore <analyzer> <reason>`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pdip/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	github := flag.Bool("github", false, "emit GitHub Actions ::error annotations (automatic when GITHUB_ACTIONS=true)")
	report := flag.Bool("report", false, "group diagnostics by analyzer with counts")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: simlint [-list] [-json] [-github] [-report] [packages]\n\n")
		fmt.Fprintf(out, "Packages are directories or dir/... trees inside the module; default ./...\n\n")
		fmt.Fprintf(out, "Analyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(out, "  %-18s %s\n", a.Name(), a.Doc())
		}
		fmt.Fprintf(out, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-18s %s\n", a.Name(), a.Doc())
		}
		return
	}

	diags, err := run(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	rel := func(path string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(r, "..") {
				return r
			}
		}
		return path
	}

	switch {
	case *jsonOut:
		printJSON(diags, rel)
	case *report:
		printReport(diags, rel)
	default:
		for _, d := range diags {
			d.Pos.Filename = rel(d.Pos.Filename)
			fmt.Println(d)
		}
	}
	if *github || os.Getenv("GITHUB_ACTIONS") == "true" {
		printGitHub(diags, rel)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiag is the machine-readable diagnostic shape.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// printJSON emits the diagnostics as one JSON array.
func printJSON(diags []lint.Diagnostic, rel func(string) string) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			Analyzer: d.Analyzer,
			File:     rel(d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
}

// printGitHub emits one ::error workflow command per diagnostic, which
// GitHub Actions renders as an inline annotation on the diff.
func printGitHub(diags []lint.Diagnostic, rel func(string) string) {
	for _, d := range diags {
		// Workflow-command property values escape %, \r, \n, and the
		// property separators.
		esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
		propEsc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
		fmt.Printf("::error file=%s,line=%d,col=%d,title=simlint %s::%s\n",
			propEsc.Replace(rel(d.Pos.Filename)), d.Pos.Line, d.Pos.Column,
			d.Analyzer, esc.Replace(d.Message))
	}
}

// printReport groups the diagnostics by analyzer, worst-offender first —
// the triage view behind `make lint-fix-report`.
func printReport(diags []lint.Diagnostic, rel func(string) string) {
	if len(diags) == 0 {
		fmt.Println("simlint: clean (0 diagnostics)")
		return
	}
	byAnalyzer := map[string][]lint.Diagnostic{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], d)
	}
	names := make([]string, 0, len(byAnalyzer))
	for name := range byAnalyzer {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if len(byAnalyzer[names[i]]) != len(byAnalyzer[names[j]]) {
			return len(byAnalyzer[names[i]]) > len(byAnalyzer[names[j]])
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		ds := byAnalyzer[name]
		fmt.Printf("%s: %d diagnostic(s)\n", name, len(ds))
		for _, d := range ds {
			fmt.Printf("  %s:%d:%d: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message)
		}
	}
}

// run loads every package named by patterns and applies all analyzers.
func run(patterns []string) ([]lint.Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := findModuleRoot(".")
	if err != nil {
		return nil, err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return nil, err
	}

	var pkgs []*lint.Package
	seen := map[string]bool{}
	add := func(p *lint.Package) {
		if !seen[p.ImportPath] {
			seen[p.ImportPath] = true
			pkgs = append(pkgs, p)
		}
	}
	for _, pat := range patterns {
		if dir, ok := strings.CutSuffix(pat, "/..."); ok {
			if dir == "." || dir == "" {
				dir = root
			}
			tree, err := loader.LoadTree(dir)
			if err != nil {
				return nil, err
			}
			for _, p := range tree {
				add(p)
			}
			continue
		}
		p, err := loader.LoadDir(pat)
		if err != nil {
			return nil, err
		}
		add(p)
	}

	// Surface type-check failures: analyzers run best-effort on partial
	// information, but a broken package should not pass silently.
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", p.ImportPath, e)
		}
	}
	return lint.Run(lint.NewProgram(loader, pkgs), lint.All()), nil
}

// findModuleRoot walks upward from dir to the directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
