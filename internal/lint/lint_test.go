package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdip/internal/lint"
)

// loadTree loads every package under root with a fresh loader and fails
// the test on load or type-check errors: the corpus and the repo itself
// must both be compilable.
func loadTree(t *testing.T, root string) *lint.Program {
	t.Helper()
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader(%s): %v", root, err)
	}
	pkgs, err := loader.LoadTree(loader.Root)
	if err != nil {
		t.Fatalf("LoadTree(%s): %v", root, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("LoadTree(%s): no packages", root)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.ImportPath, e)
		}
	}
	return lint.NewProgram(loader, pkgs)
}

// wantMarkers scans the corpus sources for `want:<analyzer>` markers and
// returns file:line → expected analyzer names. Markers live in comments on
// the line the diagnostic must anchor to.
func wantMarkers(t *testing.T, root string) map[string][]string {
	t.Helper()
	want := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for i, line := range strings.Split(string(data), "\n") {
			rest := line
			for {
				idx := strings.Index(rest, "want:")
				if idx < 0 {
					break
				}
				rest = rest[idx+len("want:"):]
				end := 0
				for end < len(rest) && rest[end] >= 'a' && rest[end] <= 'z' {
					end++
				}
				if end > 0 {
					key := rel + ":" + itoa(i+1)
					want[key] = append(want[key], rest[:end])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning corpus: %v", err)
	}
	return want
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestCorpus runs every analyzer over the testdata corpus and matches the
// diagnostics against the `want:` markers: each marker must be hit by at
// least one diagnostic of its analyzer, and no diagnostic may fire on an
// unmarked line.
func TestCorpus(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	prog := loadTree(t, root)
	want := wantMarkers(t, root)
	if len(want) == 0 {
		t.Fatal("corpus has no want: markers")
	}

	matched := map[string]map[string]bool{} // key → analyzers seen
	for _, d := range lint.Run(prog, lint.All()) {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			t.Fatalf("diagnostic outside corpus: %s", d)
			continue
		}
		key := rel + ":" + itoa(d.Pos.Line)
		ok := false
		for _, name := range want[key] {
			if name == d.Analyzer {
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if matched[key] == nil {
			matched[key] = map[string]bool{}
		}
		matched[key][d.Analyzer] = true
	}
	for key, names := range want {
		for _, name := range names {
			if !matched[key][name] {
				t.Errorf("missing diagnostic: want [%s] at %s", name, key)
			}
		}
	}
}

// TestRepoClean is the dogfooding gate: simlint over the real repository
// must report zero diagnostics. Any new violation of the determinism,
// ownership, port, namespace, checkpoint-coverage, or hot-path contracts
// fails this test.
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s", root)
	}
	prog := loadTree(t, root)
	for _, d := range lint.Run(prog, lint.All()) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestAnalyzerMetadata pins the analyzer set and its documentation: the
// names are part of the //lint:ignore interface.
func TestAnalyzerMetadata(t *testing.T) {
	wantNames := []string{
		"determinism", "counterownership", "portdiscipline", "tenantnamespace",
		"checkpointcoverage", "allocfree",
	}
	all := lint.All()
	if len(all) != len(wantNames) {
		t.Fatalf("got %d analyzers, want %d", len(all), len(wantNames))
	}
	for i, a := range all {
		if a.Name() != wantNames[i] {
			t.Errorf("analyzer %d: got %q, want %q", i, a.Name(), wantNames[i])
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %s has no doc", a.Name())
		}
	}
}
