package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/controlplane"
	"repro/internal/cpclient"
	"repro/internal/faults"
	"repro/internal/lint"
)

// citedDocs are the documents whose backticked test names must resolve.
var citedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// codeSpan matches a fenced block or an inline backtick span.
	codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
	// citedName matches a test, benchmark, fuzz target or example name; a
	// trailing *, { or … marks a prefix (BenchmarkAblation*,
	// TestReproTableVIII{a,b,c}…).
	citedName = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*)([*{…]?)`)
)

// testFuncs returns the names of every top-level function declared in a
// _test.go file of the module, bench/ included.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDocsCiteExistingTests checks that every test, benchmark, fuzz target
// or example the documents name in backticks is a function in a _test.go
// file, so deleting or renaming a test cannot leave a stale citation.
func TestDocsCiteExistingTests(t *testing.T) {
	funcs := testFuncs(t)
	var sorted []string
	for name := range funcs {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	hasPrefix := func(p string) bool {
		i := sort.SearchStrings(sorted, p)
		return i < len(sorted) && strings.HasPrefix(sorted[i], p)
	}
	for _, doc := range citedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllString(string(b), -1) {
			for _, m := range citedName.FindAllStringSubmatch(span, -1) {
				name, prefix := m[1], m[2] != ""
				if prefix && !hasPrefix(name) || !prefix && !funcs[name] {
					t.Errorf("%s cites %s, which no _test.go file declares", doc, m[0])
				}
			}
		}
	}
}

// citedPath matches a repository path under internal/, cmd/ or examples/;
// a *, { or … ends it as a prefix (internal/*).
var citedPath = regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd|examples)/[\w./-]*)`)

// TestDocsCiteExistingPaths checks that every internal/, cmd/ or examples/
// path the documents name in backticks exists, so deleting or moving a
// package cannot leave a stale citation.
func TestDocsCiteExistingPaths(t *testing.T) {
	for _, doc := range citedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllString(string(b), -1) {
			for _, m := range citedPath.FindAllStringSubmatch(span, -1) {
				path := strings.TrimRight(m[1], ".")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s cites %s, which does not exist", doc, m[1])
				}
			}
		}
	}
}

// tableNames returns the backticked first cells of the markdown table
// whose header row starts with header, in the given text.
func tableNames(text, header string) []string {
	_, table, _ := strings.Cut(text, "\n"+header)
	rows := strings.Split(table, "\n")
	if len(rows) < 2 {
		return nil
	}
	var names []string
	for _, row := range rows[2:] { // past the header's rest and the |---| rule
		cell, ok := strings.CutPrefix(row, "| `")
		if !ok {
			break
		}
		name, _, _ := strings.Cut(cell, "`")
		names = append(names, name)
	}
	return names
}

// TestDocsListEveryFaultKindAndScenario checks that DESIGN.md §8 names
// exactly the fault kinds faults.Kinds returns and the scenarios
// faults.ScenarioNames returns. (cmd/dhlsim's TestMetricsGoldens replays
// every scenario: its chaos rows are generated from the same table.)
func TestDocsListEveryFaultKindAndScenario(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(b), "\n## 8. ")
	sec, _, _ = strings.Cut(sec, "\n## 9. ")
	var kinds []string
	for _, k := range faults.Kinds() {
		kinds = append(kinds, k.String())
	}
	if got := tableNames(sec, "| Kind |"); !slices.Equal(got, kinds) {
		t.Errorf("DESIGN.md §8 taxonomy lists %v, faults.Kinds() is %v", got, kinds)
	}
	if got := tableNames(sec, "| Scenario |"); !slices.Equal(got, faults.ScenarioNames()) {
		t.Errorf("DESIGN.md §8 scenarios list %v, faults.ScenarioNames() is %v", got, faults.ScenarioNames())
	}
}

// TestDocsListEverySetting checks that DESIGN.md §11's "Settings kept"
// paragraph names, in backticks, every exported field of the control
// plane's three option types, so a setting cannot be added unlisted.
func TestDocsListEverySetting(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(b), "\n## 11. ")
	_, para, ok := strings.Cut(sec, "\n**Settings kept.**")
	if !ok {
		t.Fatal(`DESIGN.md §11 has no "Settings kept" paragraph`)
	}
	para, _, _ = strings.Cut(para, "\n\n")
	for _, opt := range []any{controlplane.ServerOptions{}, admit.Options{}, cpclient.Options{}} {
		typ := reflect.TypeOf(opt)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && !strings.Contains(para, "`"+f.Name+"`") {
				t.Errorf("DESIGN.md §11 \"Settings kept\" does not name %s.%s", typ, f.Name)
			}
		}
	}
}

// TestReadmeDeterminismScopeMatchesConfig checks that the model packages
// README's determinism row lists are exactly the ones DefaultConfig holds
// to the determinism and purity rules.
func TestReadmeDeterminismScopeMatchesConfig(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "| `determinism` |") {
			row = line
		}
	}
	_, list, ok := strings.Cut(row, "model packages (")
	list, _, closed := strings.Cut(list, ")")
	if !ok || !closed {
		t.Fatalf("README has no determinism row listing model packages (...): %q", row)
	}
	documented := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		documented[strings.Trim(strings.TrimSpace(name), "`")] = true
	}
	configured := map[string]bool{}
	for _, p := range lint.DefaultConfig(".", "repro").ModelPackages {
		configured[strings.TrimPrefix(p, "repro/internal/")] = true
	}
	for name := range configured {
		if !documented[name] {
			t.Errorf("README's determinism row omits model package %s", name)
		}
	}
	for name := range documented {
		if !configured[name] {
			t.Errorf("README's determinism row lists %s, which DefaultConfig does not treat as a model package", name)
		}
	}
}
