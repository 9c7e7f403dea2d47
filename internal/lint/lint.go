// Package lint is the repository's domain-specific static-analysis engine
// (`dhllint`). It loads every package in the module with go/parser + go/types
// — pure stdlib, no external analysis frameworks — and runs the rules that
// guard the invariants the reproduction's byte-identity guarantees and
// physics silently depend on. Rules lists them with one line each.
//
// Two kinds of check run. The intra-package analyzers (maporder,
// unitsafety and dimflow, floateq, goroutine) walk one type-checked
// package at a time on the sweep worker pool. The call-graph passes then
// run once over a module-wide call graph (callgraph.go): determinism and
// purity report the ambient reads of model code and every chain that
// reaches one (purity.go); allocflow guards //dhllint:hotpath functions;
// lockcheck, lockorder and goescape guard the concurrency that exists.
// purity, allocflow and goescape share one reverse-reach engine and report
// the shortest chain from the flagged site to what it reaches.
//
// False positives are silenced in place with a justified escape hatch:
//
//	//dhllint:allow <rule>[,<rule>...] -- <why this is safe>
//
// on the flagged line or the line directly above it. An allow comment with
// no justification is itself a diagnostic, as is an allow that suppresses
// no finding (rule "unusedallow") — the hatch cannot silently rot.
package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"

	"repro/internal/sweep"
)

// Diagnostic is one finding, addressable as file:line:col. Interprocedural
// findings (rules "purity" and "allocflow") carry the source→sink call
// chain in Chain.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	// Chain is the call path from the flagged call site to the ambient
	// source, one frame per element, innermost last. Empty for
	// intra-procedural rules.
	Chain []string `json:"chain,omitempty"`
}

// String renders the diagnostic in the conventional compiler format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Config controls which analyzers run and where each rule applies.
type Config struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module's import path (e.g. "repro").
	ModulePath string
	// Enabled restricts the rule set; nil enables every analyzer.
	Enabled map[string]bool
	// ModelPackages are the import-path prefixes subject to the
	// determinism and purity rules (model code must not read clocks,
	// global RNGs, or the environment — directly or transitively).
	ModelPackages []string
	// GoroutineAllowed lists import paths where `go` statements are
	// permitted (the sweep worker pool owns repository concurrency).
	GoroutineAllowed []string
	// UnitsPackage is the typed-quantities package; the unitsafety and
	// dimflow rules are suspended inside it (it defines the legal
	// conversions).
	UnitsPackage string
	// Workers bounds the per-package analysis pool. 0 selects
	// GOMAXPROCS; 1 is the sequential reference path. Diagnostics are
	// deterministic and input-ordered at any setting.
	Workers int
}

// DefaultConfig is the repository policy for a module rooted at root.
func DefaultConfig(root, modpath string) Config {
	model := []string{"physics", "core", "storage", "cart", "netmodel", "sim", "sweep", "fleet", "astra", "faults", "telemetry", "tubenet"}
	prefixes := make([]string, len(model))
	for i, m := range model {
		prefixes[i] = modpath + "/internal/" + m
	}
	return Config{
		ModuleRoot:       root,
		ModulePath:       modpath,
		ModelPackages:    prefixes,
		GoroutineAllowed: []string{modpath + "/internal/sweep"},
		UnitsPackage:     modpath + "/internal/units",
	}
}

func (c *Config) ruleEnabled(rule string) bool {
	if c.Enabled == nil {
		return true
	}
	return c.Enabled[rule]
}

func (c *Config) isModelPackage(path string) bool {
	for _, p := range c.ModelPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func (c *Config) goroutineAllowed(path string) bool {
	for _, p := range c.GoroutineAllowed {
		if path == p {
			return true
		}
	}
	return false
}

// RuleDoc names one rule for listing and flag validation.
type RuleDoc struct {
	Name string
	Doc  string
}

// Rules returns every rule the engine can report, in listing order.
func Rules() []RuleDoc {
	return []RuleDoc{
		{"determinism", "no time.Now, global-source rand, or env reads in model packages"},
		{"maporder", "no map-iteration order leaking into output, returned slices, or float sums"},
		{"unitsafety", "no cross-unit conversions or same-unit products outside internal/units"},
		{"dimflow", "no dimension-bending float64 arithmetic downstream of unit conversions"},
		{"floateq", "no exact ==/!= between computed floats; compare with a tolerance"},
		{"goroutine", "go statements only in internal/sweep or under a justified allow; WaitGroup.Add before the go statement"},
		{"purity", "no transitive path from model code to ambient state (call-graph pass)"},
		{"allocflow", "no allocation reachable from //dhllint:hotpath functions (call-graph pass)"},
		{"lockcheck", "//dhllint:guardedby fields accessed only under their mutex (call-graph pass)"},
		{"lockorder", "no lock-acquisition-order cycles (call-graph pass)"},
		{"goescape", "no non-thread-safe values escaping into goroutines (call-graph pass)"},
		{"unusedallow", "no //dhllint:allow comment that suppresses nothing"},
		{"allow", "every //dhllint:allow carries a -- justification"},
	}
}

// analyzers are the intra-package checks, each run when one of the rules
// it reports is enabled. determinism is not among them: it reports from
// the call graph's ambient sources (see purity.go).
var analyzers = []struct {
	rules []string
	run   func(*Pass) // its pass reports under rules[0]; runDimFlow reports unitsafety itself
}{
	{[]string{"maporder"}, runMapOrder},
	{[]string{"dimflow", "unitsafety"}, runDimFlow},
	{[]string{"floateq"}, runFloatEq},
	{[]string{"goroutine"}, runGoroutine},
}

// Pass hands one type-checked package to one analyzer, reporting under one
// rule.
type Pass struct {
	Cfg *Config
	Pkg *Package

	rule   string
	allows *allowIndex
	out    *[]Diagnostic
}

// Report files a diagnostic at pos unless an in-scope //dhllint:allow
// comment suppresses it; a suppressing allow is marked used.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.reportChain(pos, nil, format, args...)
}

func (p *Pass) reportChain(pos token.Pos, chain []string, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if e := p.allows.lookup(position.Filename, position.Line, p.rule); e != nil {
		e.used = true
		return
	}
	*p.out = append(*p.out, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
		Chain:   chain,
	})
}

// lintPackageWith runs the intra-package analyzers against a shared allow
// index. Safe to call concurrently for distinct packages: every mutation
// (diagnostics, allow used-marking) touches only this package's state.
func lintPackageWith(cfg *Config, pkg *Package, allows *allowIndex) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		for _, rule := range a.rules {
			if cfg.ruleEnabled(rule) {
				a.run(&Pass{Cfg: cfg, Pkg: pkg, rule: a.rules[0], allows: allows, out: &out})
				break
			}
		}
	}
	return out
}

// Run loads each import path with a shared loader, lints the packages on a
// bounded worker pool, runs the module-level call-graph passes, and returns
// all diagnostics sorted by position and de-duplicated.
func Run(cfg Config, importPaths []string) ([]Diagnostic, error) {
	ld := NewLoader(cfg.ModuleRoot, cfg.ModulePath)
	return RunWithLoader(cfg, ld, importPaths)
}

// RunWithLoader is Run against a caller-owned (possibly pre-warmed) loader.
func RunWithLoader(cfg Config, ld *Loader, importPaths []string) ([]Diagnostic, error) {
	// Loading is sequential: the loader memoizes recursively and the
	// dependency graph forces most of the work anyway. Analysis — the
	// AST/type walks — is the parallel part.
	pkgs, err := ld.loadAll(importPaths)
	if err != nil {
		return nil, err
	}

	allows, out := buildAllowIndex(pkgs, &cfg)

	// Per-package analysis on the sweep worker pool. Results land at
	// their input index, so diagnostics are ordered and byte-identical
	// to the sequential path regardless of worker count.
	perPkg, err := sweep.Map(context.Background(), pkgs,
		func(_ context.Context, pkg *Package) ([]Diagnostic, error) {
			return lintPackageWith(&cfg, pkg, allows), nil
		}, sweep.Workers(cfg.Workers))
	if err != nil {
		return nil, err
	}
	for _, ds := range perPkg {
		out = append(out, ds...)
	}

	// Module-level passes run after the pool: determinism and purity,
	// allocflow, and the concurrency trio need the whole call graph (built
	// once, shared — each pass keeps its own traversal state), and
	// unusedallow must observe every used-mark, including those made by
	// the graph passes themselves.
	needGraph := cfg.ruleEnabled("determinism") || cfg.ruleEnabled("purity") || cfg.ruleEnabled("allocflow") ||
		cfg.ruleEnabled("lockcheck") || cfg.ruleEnabled("lockorder") || cfg.ruleEnabled("goescape")
	if needGraph {
		graph := buildCallGraph(&cfg, pkgs)
		if cfg.ruleEnabled("determinism") || cfg.ruleEnabled("purity") {
			out = append(out, runPurity(&cfg, graph, pkgs, allows)...)
		}
		if cfg.ruleEnabled("allocflow") {
			out = append(out, runAllocFlow(&cfg, graph, allows)...)
		}
		if cfg.ruleEnabled("lockcheck") || cfg.ruleEnabled("lockorder") {
			lf := buildLockFacts(graph, pkgs)
			if cfg.ruleEnabled("lockcheck") {
				out = append(out, runLockCheck(&cfg, graph, lf, allows)...)
			}
			if cfg.ruleEnabled("lockorder") {
				out = append(out, runLockOrder(&cfg, graph, lf, allows)...)
			}
		}
		if cfg.ruleEnabled("goescape") {
			out = append(out, runGoEscape(&cfg, graph, allows)...)
		}
	}
	out = append(out, unusedAllowFindings(&cfg, allows)...)

	sortDiagnostics(out)
	return dedupe(out), nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		return slices.Compare(a.Chain, b.Chain) < 0
	})
}

// dedupe collapses diagnostics one rule reports at an identical
// file:line:col that lead to the same site — the same last Chain frame,
// e.g. two call chains through one call site — keeping the first.
// Diagnostics without a chain at one position collapse likewise. ds must
// already be sorted.
func dedupe(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	start := 0 // first kept diagnostic at the current position and rule
	for _, d := range ds {
		if start < len(out) {
			p := out[start]
			if p.File != d.File || p.Line != d.Line || p.Col != d.Col || p.Rule != d.Rule {
				start = len(out)
			}
		}
		if !slices.ContainsFunc(out[start:], func(p Diagnostic) bool { return lastFrame(p) == lastFrame(d) }) {
			out = append(out, d)
		}
	}
	return out
}

// lastFrame is the site a diagnostic's chain leads to ("" without one).
func lastFrame(d Diagnostic) string {
	if len(d.Chain) == 0 {
		return ""
	}
	return d.Chain[len(d.Chain)-1]
}

// allowEntry is one (line, rule) suppression granted by a //dhllint:allow
// comment. used flips when a diagnostic is actually suppressed by it.
type allowEntry struct {
	file string
	line int
	col  int
	rule string
	used bool
}

// allowIndex records, per file and line, which rules an escape-hatch
// comment suppresses. A diagnostic is suppressed by an allow on its own
// line or on the line directly above. The index is built once, before
// analysis; during the parallel per-package phase each entry is only
// touched by the worker owning its file's package.
type allowIndex struct {
	byFile  map[string]map[int]map[string]*allowEntry
	entries []*allowEntry
}

const allowPrefix = "dhllint:allow"

// buildAllowIndex scans every file of pkgs for allow comments, returning
// the index plus the meta diagnostics found while parsing them (missing
// justification, unknown rule name).
func buildAllowIndex(pkgs []*Package, cfg *Config) (*allowIndex, []Diagnostic) {
	known := map[string]bool{}
	for _, r := range Rules() {
		known[r.Name] = true
	}
	var out []Diagnostic
	idx := &allowIndex{byFile: make(map[string]map[int]map[string]*allowEntry)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
					if !strings.HasPrefix(text, allowPrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
					rules, reason, _ := strings.Cut(rest, " ")
					position := pkg.Fset.Position(c.Pos())
					meta := func(msg string) {
						if cfg.ruleEnabled("allow") {
							out = append(out, Diagnostic{File: position.Filename, Line: position.Line,
								Col: position.Column, Rule: "allow", Message: msg})
						}
					}
					if strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(reason), "--")) == "" {
						meta("dhllint:allow needs a justification: //dhllint:allow <rule> -- <why this is safe>")
						continue
					}
					for _, r := range strings.Split(rules, ",") {
						r = strings.TrimSpace(r)
						if r == "" {
							continue
						}
						if !known[r] {
							meta(fmt.Sprintf("dhllint:allow names unknown rule %q", r))
							continue
						}
						idx.add(&allowEntry{file: position.Filename, line: position.Line, col: position.Column, rule: r})
					}
				}
			}
		}
	}
	return idx, out
}

func (a *allowIndex) add(e *allowEntry) {
	lines := a.byFile[e.file]
	if lines == nil {
		lines = make(map[int]map[string]*allowEntry)
		a.byFile[e.file] = lines
	}
	set := lines[e.line]
	if set == nil {
		set = make(map[string]*allowEntry)
		lines[e.line] = set
	}
	if set[e.rule] == nil {
		set[e.rule] = e
		a.entries = append(a.entries, e)
	}
}

// lookup returns the allow entry covering a diagnostic for rule at
// file:line — an allow on the same line wins over one on the line above —
// or nil if the diagnostic is not suppressed.
func (a *allowIndex) lookup(file string, line int, rule string) *allowEntry {
	lines := a.byFile[file]
	if lines == nil {
		return nil
	}
	if e := lines[line][rule]; e != nil {
		return e
	}
	return lines[line-1][rule]
}

// unusedAllowFindings reports every allow entry that suppressed nothing.
// Only rules that actually ran are considered, so `-rules floateq` does not
// condemn the determinism allows it never exercised. An unused allow can
// itself be kept alive with //dhllint:allow unusedallow -- <why>.
func unusedAllowFindings(cfg *Config, idx *allowIndex) []Diagnostic {
	if !cfg.ruleEnabled("unusedallow") {
		return nil
	}
	var out []Diagnostic
	report := func(e *allowEntry) {
		if cover := idx.lookup(e.file, e.line, "unusedallow"); cover != nil && cover != e {
			cover.used = true
			return
		}
		out = append(out, Diagnostic{
			File:    e.file,
			Line:    e.line,
			Col:     e.col,
			Rule:    "unusedallow",
			Message: fmt.Sprintf("//dhllint:allow %s suppresses no finding; delete it (or justify keeping it with //dhllint:allow unusedallow -- <why>)", e.rule),
		})
	}
	// Two passes: ordinary entries first (their reports may consume an
	// unusedallow entry), then any unusedallow entries still idle.
	for _, e := range idx.entries {
		if e.rule != "unusedallow" && !e.used && cfg.ruleEnabled(e.rule) {
			report(e)
		}
	}
	for _, e := range idx.entries {
		if e.rule == "unusedallow" && !e.used {
			report(e)
		}
	}
	return out
}

// funcDecls yields every function declaration with a body in the file.
func funcDecls(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}
