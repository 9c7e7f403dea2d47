package lint

import (
	"go/ast"
	"go/types"
)

// determinism and purity are the two ends of one chain from model code to
// ambient state: the sources the call graph records (wall clock, global
// RNG, environment reads, order-sensitive map ranges). Every model
// evaluation must be a pure function of its inputs, or a seed stops
// replaying byte for byte; randomness comes from a seeded *rand.Rand
// threaded through a constructor, time from the simulation engine.
//
//   - determinism is the chain of length zero: each ambient read in a model
//     package, in a function body or a package-level declaration.
//   - purity is every longer chain: taint propagates backwards over call
//     edges, through helpers in any package, and each call site in a model
//     package whose callee is tainted is reported with the chain.
//
// A source is silenced with //dhllint:allow purity, or with an allow for
// the rule that owns it (determinism for ambient reads in model code,
// maporder for map ranges); a justified source taints no caller.

// runPurity reports ambient reads in model code under the determinism rule
// and tainted model call sites under the purity rule, each when enabled.
// Runs after the per-package pool, sequentially.
func runPurity(cfg *Config, g *CallGraph, pkgs []*Package, allows *allowIndex) []Diagnostic {
	var out []Diagnostic
	if cfg.ruleEnabled("determinism") {
		reportAmbientReads(cfg, g, pkgs, allows, &out)
	}
	if !cfg.ruleEnabled("purity") {
		return out
	}
	// Seed at each node's first unsuppressed ambient source.
	seeds := make(map[*cgNode]*site)
	for _, n := range g.order {
		for i := range n.sources {
			if s := &n.sources[i]; !g.seedSuppressed(n, s, allows) {
				seeds[n] = &s.site
				break
			}
		}
	}
	r := g.reachFrom(seeds)
	for _, n := range g.order {
		if !cfg.isModelPackage(n.pkg.ImportPath) {
			continue
		}
		pass := &Pass{Cfg: cfg, Pkg: n.pkg, rule: "purity", allows: allows, out: &out}
		for _, e := range n.calls {
			callee := g.nodes[e.callee]
			if callee == nil || !r.reaches(callee) {
				continue
			}
			chain, src := r.chain(callee)
			pass.reportChain(e.pos, chain,
				"%s transitively reaches %s: %s; model code must be a pure function of its inputs",
				g.shortName(e.callee), src.desc, chainArrow(chain))
		}
	}
	return out
}

// reportAmbientReads files a determinism finding for every ambient read in
// a model package: the graph's sources cover function bodies, and the
// package-level declarations the graph does not see are scanned here.
func reportAmbientReads(cfg *Config, g *CallGraph, pkgs []*Package, allows *allowIndex, out *[]Diagnostic) {
	for _, n := range g.order {
		if !cfg.isModelPackage(n.pkg.ImportPath) {
			continue
		}
		pass := &Pass{Cfg: cfg, Pkg: n.pkg, rule: "determinism", allows: allows, out: out}
		for _, s := range n.sources {
			if s.rule == "determinism" {
				pass.Report(s.pos, "%s", s.advice)
			}
		}
	}
	for _, pkg := range pkgs {
		if !cfg.isModelPackage(pkg.ImportPath) {
			continue
		}
		pass := &Pass{Cfg: cfg, Pkg: pkg, rule: "determinism", allows: allows, out: out}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if _, isFunc := d.(*ast.FuncDecl); isFunc {
					continue
				}
				ast.Inspect(d, func(node ast.Node) bool {
					if id, ok := node.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
							if _, advice := ambientSource(fn); advice != "" {
								pass.Report(id.Pos(), "%s", advice)
							}
						}
					}
					return true
				})
			}
		}
	}
}

// seedSuppressed reports whether an ambient source is justified in place:
// an allow for "purity" at the source line, or for the rule that owns the
// construct (determinism in model packages, maporder for map ranges). A
// consumed purity allow is marked used; the owning rule marks its own.
func (g *CallGraph) seedSuppressed(n *cgNode, s *taintSource, allows *allowIndex) bool {
	pos := g.fset.Position(s.pos)
	if e := allows.lookup(pos.Filename, pos.Line, "purity"); e != nil {
		e.used = true
		return true
	}
	if s.rule == "maporder" {
		if e := allows.lookup(pos.Filename, pos.Line, "maporder"); e != nil {
			return true
		}
	}
	// An ambient read in a model package carries a determinism allow when
	// justified; honour it here too so the justification silences both
	// the direct report and the transitive ones.
	if s.rule == "determinism" && g.cfg.isModelPackage(n.pkg.ImportPath) {
		if e := allows.lookup(pos.Filename, pos.Line, "determinism"); e != nil {
			return true
		}
	}
	return false
}
