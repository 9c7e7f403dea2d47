package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// The call graph is the substrate for the module-level passes: every
// function declaration in the loaded packages is a node, every static call
// or reference from one module function to another is an edge, and every
// reach into ambient state (wall clock, global RNG, environment, an
// order-sensitive map range) is a taint source pinned to the node that
// contains it. Function literals are attributed to their enclosing
// declaration, so a source inside a closure taints the declaring function.
//
// Limitations, by construction: calls through interface methods and
// function values are not resolved (no edge), so taint does not propagate
// through them — the determinism rule still reports each direct ambient
// read in model code where it occurs.
//
// The purity, allocflow and goescape passes share one reverse-reach engine
// (reachFrom): each seeds it with the sites it cares about and reads back
// which functions reach one, and by which shortest chain.

// CallGraph is the module-wide static call graph over the loaded packages.
type CallGraph struct {
	cfg   *Config
	fset  *token.FileSet
	nodes map[*types.Func]*cgNode
	order []*cgNode // deterministic: package input order, then position
}

type cgNode struct {
	fn      *types.Func
	pkg     *Package
	decl    *ast.FuncDecl
	calls   []cgEdge
	callers []*cgNode // reverse edges in graph order, one per call site
	sources []taintSource
}

// cgEdge is one static call (or function-value reference) site.
type cgEdge struct {
	callee *types.Func
	pos    token.Pos
}

// site is one construct in a function body that seeds a reverse reach:
// an ambient read, an allocation, a touch of non-thread-safe state.
type site struct {
	desc string // e.g. "time.Now (wall clock)"
	pos  token.Pos
}

// taintSource is one direct reach into ambient state.
type taintSource struct {
	site
	rule   string // the rule that owns the construct; its allow also silences this seed
	advice string // the determinism finding's message; empty for map ranges
}

// Graph loads the import paths and builds their call graph — the `-graph`
// debug entry point of cmd/dhllint.
func Graph(cfg Config, importPaths []string) (*CallGraph, error) {
	pkgs, err := NewLoader(cfg.ModuleRoot, cfg.ModulePath).loadAll(importPaths)
	if err != nil {
		return nil, err
	}
	return buildCallGraph(&cfg, pkgs), nil
}

func buildCallGraph(cfg *Config, pkgs []*Package) *CallGraph {
	g := &CallGraph{cfg: cfg, nodes: make(map[*types.Func]*cgNode)}
	if len(pkgs) > 0 {
		g.fset = pkgs[0].Fset
	}
	// First pass: one node per function declaration.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, fd := range funcDecls(f) {
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &cgNode{fn: fn, pkg: pkg, decl: fd}
				g.nodes[fn] = n
				g.order = append(g.order, n)
			}
		}
	}
	// Second pass: edges and taint sources from each body.
	for _, n := range g.order {
		g.scanBody(n)
	}
	for _, n := range g.order {
		for _, e := range n.calls {
			if callee := g.nodes[e.callee]; callee != nil {
				callee.callers = append(callee.callers, n)
			}
		}
	}
	return g
}

// scanBody records, for one function declaration, every call/reference to
// another module function and every direct ambient-state reach.
func (g *CallGraph) scanBody(n *cgNode) {
	info := n.pkg.Info
	seenEdge := map[*types.Func]map[token.Pos]bool{}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		fn = fn.Origin()
		if g.isModuleFunc(fn) {
			if fn != n.fn { // ignore self-recursion edges
				if seenEdge[fn] == nil {
					seenEdge[fn] = map[token.Pos]bool{}
				}
				if !seenEdge[fn][id.Pos()] {
					seenEdge[fn][id.Pos()] = true
					n.calls = append(n.calls, cgEdge{callee: fn, pos: id.Pos()})
				}
			}
			return true
		}
		if desc, advice := ambientSource(fn); desc != "" {
			n.sources = append(n.sources, taintSource{site: site{desc, id.Pos()}, rule: "determinism", advice: advice})
		}
		return true
	})
	// Map ranges whose body is iteration-order-sensitive are ambient
	// state too: the traversal order changes run to run.
	for _, r := range orderSensitiveRanges(info, n.decl) {
		n.sources = append(n.sources, taintSource{
			site: site{fmt.Sprintf("map iteration order (%s)", r.reason), r.pos},
			rule: "maporder",
		})
	}
	sort.Slice(n.sources, func(i, j int) bool { return n.sources[i].pos < n.sources[j].pos })
}

func (g *CallGraph) isModuleFunc(fn *types.Func) bool {
	path := fn.Pkg().Path()
	return path == g.cfg.ModulePath || strings.HasPrefix(path, g.cfg.ModulePath+"/")
}

// seededConstructors are the math/rand entry points that take an explicit
// seed or source and are therefore deterministic.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 seeded generators.
	"NewPCG": true, "NewChaCha8": true,
}

// ambientSource classifies a non-module function as an ambient-state
// source: the wall clock, global math/rand draws, and environment reads.
// It returns the seed description ("time.Now (wall clock)") and the
// message of the determinism finding, or two empty strings. Methods never
// qualify — a seeded *rand.Rand's Float64 is the sanctioned idiom.
func ambientSource(fn *types.Func) (desc, advice string) {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", ""
	}
	var kind string
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			kind, advice = "wall clock", "reads the wall clock; model code must take time from the simulation engine or an injected clock"
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			kind, advice = "global random source", "draws from the global source; thread a seeded *rand.Rand through the constructor instead"
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			kind, advice = "environment read", "makes model output depend on the environment; pass configuration explicitly"
		}
	}
	if kind == "" {
		return "", ""
	}
	name := fn.Pkg().Name() + "." + fn.Name()
	return fmt.Sprintf("%s (%s)", name, kind), name + " " + advice
}

// reach is one reverse search over the call graph: every function that
// can reach a seed, with its next hop toward the nearest one.
type reach struct {
	g     *CallGraph
	seeds map[*cgNode]*site
	via   map[*cgNode]*cgNode // next hop toward a seed; nil at a seed
}

// reachFrom runs a multi-source BFS backwards over call edges from seeds.
// Seeds enter the queue in graph order and callers are listed in graph
// order, so the shortest chain it picks is the same on every run.
func (g *CallGraph) reachFrom(seeds map[*cgNode]*site) *reach {
	r := &reach{g: g, seeds: seeds, via: make(map[*cgNode]*cgNode)}
	var queue []*cgNode
	for _, n := range g.order {
		if seeds[n] != nil {
			r.via[n] = nil
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, caller := range n.callers {
			if _, seen := r.via[caller]; !seen {
				r.via[caller] = n
				queue = append(queue, caller)
			}
		}
	}
	return r
}

// reaches reports whether n reaches a seed.
func (r *reach) reaches(n *cgNode) bool {
	_, ok := r.via[n]
	return ok
}

// chain renders the shortest call chain from n, which must reach a seed,
// down to that seed: one "name (file:line)" frame per function, innermost
// last, then the seed site itself. It also returns the seed.
func (r *reach) chain(n *cgNode) ([]string, *site) {
	var frames []string
	for {
		frames = append(frames, fmt.Sprintf("%s (%s)", r.g.shortName(n.fn), r.g.relPos(n.decl.Pos())))
		if r.via[n] == nil {
			break
		}
		n = r.via[n]
	}
	s := r.seeds[n]
	return append(frames, fmt.Sprintf("%s (%s)", s.desc, r.g.relPos(s.pos))), s
}

// chainArrow compacts chain frames into "a → b → c" using just the names.
func chainArrow(chain []string) string {
	names := make([]string, len(chain))
	for i, frame := range chain {
		if j := strings.IndexByte(frame, '('); j > 0 {
			names[i] = strings.TrimSpace(frame[:j])
		} else {
			names[i] = frame
		}
	}
	return strings.Join(names, " → ")
}

// shortName renders a function for chains and dumps: the package path with
// the module prefix trimmed, then the receiver (if any) and name.
func (g *CallGraph) shortName(fn *types.Func) string {
	pkgPath := strings.TrimPrefix(fn.Pkg().Path(), g.cfg.ModulePath+"/")
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return pkgPath + "." + name
}

// relPos renders pos relative to the module root.
func (g *CallGraph) relPos(pos token.Pos) string {
	p := g.fset.Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(g.cfg.ModuleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// Dump writes the graph in a stable text form: a summary line, one
// `caller -> callee (pos)` line per edge, and one `fn => source (pos)`
// line per ambient seed, all sorted.
func (g *CallGraph) Dump(w io.Writer) {
	edges, seeds := 0, 0
	var lines []string
	for _, n := range g.order {
		for _, e := range n.calls {
			edges++
			lines = append(lines, fmt.Sprintf("%s -> %s (%s)", g.shortName(n.fn), g.shortName(e.callee), g.relPos(e.pos)))
		}
		for _, s := range n.sources {
			seeds++
			lines = append(lines, fmt.Sprintf("%s => %s (%s)", g.shortName(n.fn), s.desc, g.relPos(s.pos)))
		}
	}
	sort.Strings(lines)
	fmt.Fprintf(w, "# call graph: %d functions, %d edges, %d ambient sources\n", len(g.order), edges, seeds)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
