package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The lockcheck pass proves lock discipline statically. A struct field
// opts in with a //dhllint:guardedby <mutexField> directive on its
// declaration (doc comment or trailing line comment); the pass then
// verifies that every access to the field happens while that *same
// instance's* mutex is held.
//
// The intraprocedural half computes locksets: a forward walk over each
// function body tracks which mutexes are held at every statement,
// recognising mu.Lock/Unlock/RLock/RUnlock on sync.Mutex and
// sync.RWMutex, the defer mu.Unlock() idiom (the lock stays held to every
// return), and early returns (the walk is syntactic, so a return under a
// held lock is simply a point where the lock is held). Mutexes are
// identified per instance: s.connMu and t.connMu are different locks, but
// two accesses through the same receiver variable share one. Branch
// bodies inherit the lockset at entry; acquisitions inside a branch do
// not leak past it (a deliberate under-approximation that keeps the walk
// flow-insensitive across joins). Function literals run later, so their
// bodies are walked with an empty lockset, as is the callee of a go
// statement.
//
// The interprocedural half makes helpers verifiable through their
// callers: an unguarded access whose lock is rooted at the receiver or a
// parameter becomes a "caller must hold" summary instead of an immediate
// finding. The requirement propagates backwards over the module call
// graph — translated through each call site's receiver/argument
// expressions — and is discharged wherever the caller holds the
// translated lock. What survives to a function with no module callers
// (or to a call site whose receiver cannot be resolved to a variable) is
// reported with the shortest call chain from the entry point down to the
// guarded access, in the message and the JSON chain field, exactly like
// purity and allocflow.
//
// Writes (assignment targets, map writes, delete, ++/--) require the
// mutex write-held; reads are satisfied by either mode of an RWMutex.
//
// Limitations, shared with the other call-graph passes: calls through
// interfaces and function values are invisible, promoted (embedded)
// mutexes and fields are not traced, and a lock acquired in both arms of
// a branch is not considered held after the join. The race detector in
// scripts/check.sh remains the dynamic backstop.

// guardedByDirective marks a struct field as protected by a sibling
// mutex field.
const guardedByDirective = "//dhllint:guardedby"

// lockMode distinguishes read-held (RLock) from write-held (Lock).
type lockMode int

const (
	modeRead  lockMode = 1
	modeWrite lockMode = 2
)

func (m lockMode) String() string {
	if m == modeRead {
		return "read"
	}
	return "write"
}

// lockKey identifies one mutex instance inside one function frame: the
// root variable the access path starts from (receiver, parameter, local,
// or package-level var) plus the dotted field path to the mutex.
type lockKey struct {
	root types.Object
	path string
}

// guardInfo is one parsed //dhllint:guardedby annotation.
type guardInfo struct {
	owner     string // declaring struct type name, for messages
	fieldName string // the guarded field
	mutexPath string // the sibling mutex field named by the directive
	rw        bool   // the mutex is an RWMutex
}

// guardedAccess is one access to a guarded field made without the mutex
// held in the required mode — a requirement seed.
type guardedAccess struct {
	pos  token.Pos
	key  lockKey
	mode lockMode
	info *guardInfo
}

// argRef is the (root, path) of a receiver or argument expression at a
// call site, used to translate a callee's lock requirement into the
// caller's frame. ok is false when the expression is not a variable
// access path (a call result, a literal, arithmetic...).
type argRef struct {
	root types.Object
	path string
	ok   bool
}

// lockCallSite is one static call into a module function, with the
// lockset held at the call and the argument paths needed for
// requirement translation.
type lockCallSite struct {
	pos    token.Pos
	callee *types.Func
	held   map[lockKey]lockMode
	recv   argRef
	args   []argRef
}

// acquireEvent is one Lock/RLock, with a snapshot of the locks already
// held — the raw material of the lockorder pass.
type acquireEvent struct {
	pos  token.Pos
	key  lockKey
	read bool
	held []lockKey
}

// fnLockFacts is everything the concurrency passes need to know about
// one function body.
type fnLockFacts struct {
	n        *cgNode
	accesses []guardedAccess
	calls    []lockCallSite
	acquires []acquireEvent
}

// lockFacts is the module-wide result of the lockset walk, shared by
// lockcheck and lockorder.
type lockFacts struct {
	guards map[*types.Var]*guardInfo
	perFn  map[*cgNode]*fnLockFacts
	// annotation errors found while parsing directives (unknown mutex
	// field, non-mutex target), reported under the lockcheck rule.
	parseDiags []parsedGuardError
}

type parsedGuardError struct {
	pkg *Package
	pos token.Pos
	msg string
}

// buildLockFacts parses every guardedby directive in the loaded packages
// and runs the lockset walker over every function on the call graph.
func buildLockFacts(g *CallGraph, pkgs []*Package) *lockFacts {
	lf := &lockFacts{
		guards: make(map[*types.Var]*guardInfo),
		perFn:  make(map[*cgNode]*fnLockFacts),
	}
	for _, pkg := range pkgs {
		lf.collectGuards(pkg)
	}
	for _, n := range g.order {
		w := &lockWalker{g: g, n: n, guards: lf.guards, facts: &fnLockFacts{n: n}}
		walkFlow(w, n.decl.Body.List)
		lf.perFn[n] = w.facts
	}
	return lf
}

// collectGuards scans one package's struct declarations for guardedby
// directives, validating that the named mutex is a sibling field of
// sync.Mutex or sync.RWMutex type.
func (lf *lockFacts) collectGuards(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			ts, ok := node.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mutexName, pos, ok := guardDirective(field)
				if !ok {
					continue
				}
				mvar, rw := findMutexField(pkg, st, mutexName)
				if mvar == nil {
					lf.parseDiags = append(lf.parseDiags, parsedGuardError{
						pkg: pkg, pos: pos,
						msg: fmt.Sprintf("//dhllint:guardedby %s: %s is not a sync.Mutex or sync.RWMutex field of %s", mutexName, mutexName, ts.Name.Name),
					})
					continue
				}
				for _, name := range field.Names {
					fv, ok := pkg.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					lf.guards[fv] = &guardInfo{
						owner:     ts.Name.Name,
						fieldName: name.Name,
						mutexPath: mutexName,
						rw:        rw,
					}
				}
			}
			return true
		})
	}
}

// guardDirective extracts the mutex field name from a field's doc or
// trailing comment.
func guardDirective(field *ast.Field) (mutex string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if rest, found := strings.CutPrefix(text, guardedByDirective); found {
				name := strings.TrimSpace(rest)
				if name != "" {
					return name, c.Pos(), true
				}
			}
		}
	}
	return "", token.NoPos, false
}

// findMutexField resolves name to a sync.Mutex/RWMutex field of st.
func findMutexField(pkg *Package, st *ast.StructType, name string) (*types.Var, bool) {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name != name {
				continue
			}
			v, ok := pkg.Info.Defs[n].(*types.Var)
			if !ok {
				return nil, false
			}
			if rw, isMutex := mutexType(v.Type()); isMutex {
				return v, rw
			}
			return nil, false
		}
	}
	return nil, false
}

// mutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer), and which.
func mutexType(t types.Type) (rw, ok bool) {
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// pathOf resolves an expression to (root variable, dotted field path):
// s → (s, ""), s.connMu → (s, "connMu"), s.state.mu → (s, "state.mu").
// &x and *x unwrap; anything that is not a variable access path fails.
func pathOf(info *types.Info, e ast.Expr) (types.Object, string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			return v, "", true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			root, p, ok := pathOf(info, x.X)
			if !ok {
				return nil, "", false
			}
			return root, joinPath(p, x.Sel.Name), true
		}
		// Package-qualified variable: pkg.Var.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
			return v, "", true
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return pathOf(info, x.X)
		}
	case *ast.StarExpr:
		return pathOf(info, x.X)
	}
	return nil, "", false
}

func joinPath(base, field string) string {
	if base == "" {
		return field
	}
	return base + "." + field
}

// lockWalker is the lockset flowRule: the per-function walk state plus
// the lockset held at the current statement. Lock operations mutate held
// in place so later statements see them; a branch walks a copy. An empty
// lockset is nil, so the many lock-free branches and call sites copy
// nothing.
type lockWalker struct {
	g      *CallGraph
	n      *cgNode
	guards map[*types.Var]*guardInfo
	facts  *fnLockFacts
	held   map[lockKey]lockMode
}

// with returns the walker for the same function holding held instead.
func (w *lockWalker) with(held map[lockKey]lockMode) *lockWalker {
	c := *w
	c.held = held
	return &c
}

func (w *lockWalker) branch() flowRule { return w.with(cloneHeld(w.held)) }

func cloneHeld(held map[lockKey]lockMode) map[lockKey]lockMode {
	if len(held) == 0 {
		return nil
	}
	out := make(map[lockKey]lockMode, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

// lockOp classifies a call as a mutex operation, returning the kind and
// the mutex expression (the receiver of Lock/Unlock/...).
func (w *lockWalker) lockOp(call *ast.CallExpr) (lockOpKind, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, nil
	}
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock":
		kind = opLock
	case "RLock":
		kind = opRLock
	case "Unlock":
		kind = opUnlock
	case "RUnlock":
		kind = opRUnlock
	default:
		return opNone, nil
	}
	tv, ok := w.n.pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return opNone, nil
	}
	if _, isMutex := mutexType(tv.Type); !isMutex {
		return opNone, nil
	}
	return kind, sel.X
}

func (w *lockWalker) applyLockOp(kind lockOpKind, mutexExpr ast.Expr, pos token.Pos) {
	root, path, ok := pathOf(w.n.pkg.Info, mutexExpr)
	if !ok {
		return
	}
	key := lockKey{root, path}
	switch kind {
	case opLock, opRLock:
		snapshot := make([]lockKey, 0, len(w.held))
		for k := range w.held {
			snapshot = append(snapshot, k)
		}
		sort.Slice(snapshot, func(i, j int) bool {
			return w.g.lockID(snapshot[i]) < w.g.lockID(snapshot[j])
		})
		w.facts.acquires = append(w.facts.acquires, acquireEvent{
			pos: pos, key: key, read: kind == opRLock, held: snapshot,
		})
		if w.held == nil {
			w.held = make(map[lockKey]lockMode)
		}
		if kind == opLock {
			w.held[key] = modeWrite
		} else if w.held[key] < modeRead {
			w.held[key] = modeRead
		}
	case opUnlock, opRUnlock:
		delete(w.held, key)
	}
}

// stmt handles the lockset's own statements: lock operations, deferred
// unlocks, go statements, assignments and declarations.
func (w *lockWalker) stmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if kind, mexpr := w.lockOp(call); kind != opNone {
				w.applyLockOp(kind, mexpr, call.Pos())
				return true
			}
		}
		return false
	case *ast.DeferStmt:
		// A deferred unlock releases at exit: the lock stays held for the
		// walk.
		kind, _ := w.lockOp(st.Call)
		return kind == opUnlock || kind == opRUnlock
	case *ast.GoStmt:
		// The spawned call runs without the caller's locks: arguments
		// are evaluated now (current lockset), the callee is recorded
		// with an empty one. Function literals are handled by expr,
		// which always walks their bodies lock-free.
		w.scanGoCall(st.Call)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			w.expr(r)
		}
		for _, l := range st.Lhs {
			w.write(l)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	default:
		return false
	}
	return true
}

// scanGoCall records a go statement's callee with an empty lockset and
// its argument evaluation with the current one.
func (w *lockWalker) scanGoCall(call *ast.CallExpr) {
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.expr(call.Fun) // literal body walks lock-free inside expr
	} else {
		w.recordCall(call, nil)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			w.expr(sel.X)
		}
	}
	for _, a := range call.Args {
		w.expr(a)
	}
}

// expr records guarded-field reads, call sites, and lock-free
// closure bodies inside one expression.
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	info := w.n.pkg.Info
	ast.Inspect(e, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			// Runs later, without the current locks.
			walkFlow(w.with(nil), x.Body.List)
			return false
		case *ast.CallExpr:
			if kind, mexpr := w.lockOp(x); kind != opNone {
				// Lock calls buried in expressions are rare and not
				// modelled; skip the receiver so the mutex field itself
				// is not misread as an access.
				_ = mexpr
				return false
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(x.Args) == 2 {
					w.write(x.Args[0])
					w.expr(x.Args[1])
					return false
				}
			}
			w.recordCall(x, w.held)
			return true
		case *ast.SelectorExpr:
			if w.checkSelector(x, modeRead) {
				w.expr(x.X)
				return false
			}
			return true
		}
		return true
	})
}

// write classifies the spine of an assignment target: the base
// guarded field (possibly behind index/star/paren wrappers) needs the
// mutex write-held; index expressions along the way are reads.
func (w *lockWalker) write(e ast.Expr) {
	switch x := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		w.expr(x.Index)
		w.write(x.X)
	case *ast.StarExpr:
		w.write(x.X)
	case *ast.SelectorExpr:
		if w.checkSelector(x, modeWrite) {
			w.expr(x.X)
			return
		}
		w.write(x.X)
	case *ast.Ident:
		// Plain variable target: nothing guarded.
	default:
		w.expr(e)
	}
}

// checkSelector resolves x against the guard table; a guarded access
// made without the mutex held (in at least the required mode) is
// recorded as a requirement seed. Returns whether x is a guarded field
// selection at all.
func (w *lockWalker) checkSelector(x *ast.SelectorExpr, mode lockMode) bool {
	info := w.n.pkg.Info
	sel, ok := info.Selections[x]
	if !ok || sel.Kind() != types.FieldVal {
		return false
	}
	fvar, ok := sel.Obj().(*types.Var)
	if !ok {
		return false
	}
	gi := w.guards[fvar]
	if gi == nil {
		return false
	}
	root, basePath, ok := pathOf(info, x.X)
	if !ok {
		return true // not a traceable instance; stay quiet
	}
	key := lockKey{root, joinPath(basePath, gi.mutexPath)}
	if w.held[key] >= mode {
		return true
	}
	w.facts.accesses = append(w.facts.accesses, guardedAccess{
		pos: x.Pos(), key: key, mode: mode, info: gi,
	})
	return true
}

// recordCall snapshots the lockset and argument paths at one static call
// into a module function.
func (w *lockWalker) recordCall(call *ast.CallExpr, held map[lockKey]lockMode) {
	info := w.n.pkg.Info
	fun := ast.Unparen(call.Fun)
	fn := calleeFunc(info, fun)
	if fn == nil || fn.Pkg() == nil || !w.g.isModuleFunc(fn) {
		return
	}
	cs := lockCallSite{pos: call.Pos(), callee: fn, held: cloneHeld(held)}
	if se, ok := fun.(*ast.SelectorExpr); ok {
		if sel, selOK := info.Selections[se]; selOK && sel.Kind() == types.MethodVal {
			r, p, ok := pathOf(info, se.X)
			cs.recv = argRef{root: r, path: p, ok: ok}
		}
	}
	for _, a := range call.Args {
		r, p, ok := pathOf(info, a)
		cs.args = append(cs.args, argRef{root: r, path: p, ok: ok})
	}
	w.facts.calls = append(w.facts.calls, cs)
}

// lockID renders a lock at type level — receiver type plus field path —
// so distinct instances of one struct share an identity. Plain mutex
// variables are qualified by package (or declaring type) and name.
func (g *CallGraph) lockID(key lockKey) string {
	if key.path != "" {
		t := key.root.Type()
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return g.shortTypeName(named) + "." + key.path
		}
	}
	prefix := ""
	if pkg := key.root.Pkg(); pkg != nil {
		prefix = strings.TrimPrefix(pkg.Path(), g.cfg.ModulePath+"/") + "."
	}
	return prefix + joinPath(key.root.Name(), key.path)
}

func (g *CallGraph) shortTypeName(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return strings.TrimPrefix(obj.Pkg().Path(), g.cfg.ModulePath+"/") + "." + obj.Name()
}

// lockReq is one in-flight "caller must hold" requirement during the
// interprocedural BFS.
type lockReq struct {
	node *cgNode
	key  lockKey
	mode lockMode
	info *guardInfo
	// chain runs from the function the requirement currently sits in
	// down to the guarded access, outermost first; the access itself is
	// the final frame.
	chain []string
	// pos is where a report lands if the requirement cannot propagate
	// further: the access for seeds, the call site for inherited ones.
	pos token.Pos
}

type reqVisitKey struct {
	node *cgNode
	key  lockKey
	mode lockMode
}

// runLockCheck propagates unguarded-access requirements backwards over
// the call graph and reports what no caller discharges.
func runLockCheck(cfg *Config, g *CallGraph, lf *lockFacts, allows *allowIndex) []Diagnostic {
	var out []Diagnostic
	for _, pd := range lf.parseDiags {
		pass := &Pass{Cfg: cfg, Pkg: pd.pkg, rule: "lockcheck", allows: allows, out: &out}
		pass.Report(pd.pos, "%s", pd.msg)
	}

	// Call-site index: every static call targeting a function, in
	// deterministic graph order.
	type siteRef struct {
		owner *cgNode
		site  *lockCallSite
	}
	sitesOf := make(map[*types.Func][]siteRef)
	for _, n := range g.order {
		facts := lf.perFn[n]
		for i := range facts.calls {
			cs := &facts.calls[i]
			sitesOf[cs.callee] = append(sitesOf[cs.callee], siteRef{owner: n, site: cs})
		}
	}

	var queue []lockReq
	visited := make(map[reqVisitKey]bool)
	enqueue := func(r lockReq) {
		vk := reqVisitKey{r.node, r.key, r.mode}
		if visited[vk] {
			return
		}
		visited[vk] = true
		queue = append(queue, r)
	}

	// Seeds: unguarded accesses, minus those justified in place.
	for _, n := range g.order {
		facts := lf.perFn[n]
		accs := append([]guardedAccess(nil), facts.accesses...)
		sort.Slice(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })
		for _, a := range accs {
			pos := g.fset.Position(a.pos)
			if e := allows.lookup(pos.Filename, pos.Line, "lockcheck"); e != nil {
				e.used = true
				continue
			}
			frame := fmt.Sprintf("%s.%s %s access (guarded by %s) (%s)",
				a.info.owner, a.info.fieldName, a.mode, a.info.mutexPath, g.relPos(a.pos))
			enqueue(lockReq{node: n, key: a.key, mode: a.mode, info: a.info,
				chain: []string{frame}, pos: a.pos})
		}
	}

	report := func(r lockReq) {
		pass := &Pass{Cfg: cfg, Pkg: r.node.pkg, rule: "lockcheck", allows: allows, out: &out}
		lock := g.lockID(r.key)
		if len(r.chain) == 1 {
			pass.reportChain(r.pos, r.chain,
				"%s.%s is annotated //dhllint:guardedby %s but is accessed (%s) without %s held",
				r.info.owner, r.info.fieldName, r.info.mutexPath, r.mode, lock)
			return
		}
		pass.reportChain(r.pos, r.chain,
			"call requires %s held (%s) for guarded field %s.%s, and no caller on this path holds it: %s",
			lock, r.mode, r.info.owner, r.info.fieldName, chainArrow(r.chain))
	}

	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		sites := sitesOf[r.node.fn]
		if !rootIsFormal(r.node, r.key.root) || len(sites) == 0 {
			report(r)
			continue
		}
		for _, sr := range sites {
			ref, ok := formalRef(r.node, r.key.root, sr.site)
			frame := fmt.Sprintf("%s (%s)", g.shortName(r.node.fn), g.relPos(r.node.decl.Pos()))
			if !ok || !ref.ok {
				// The instance is invisible at this call site; the
				// requirement cannot be checked further up.
				report(lockReq{node: sr.owner, key: r.key, mode: r.mode, info: r.info,
					chain: append([]string{frame}, r.chain...), pos: sr.site.pos})
				continue
			}
			ck := lockKey{root: ref.root, path: joinPath(ref.path, r.key.path)}
			if sr.site.held[ck] >= r.mode {
				continue // discharged: this caller holds the lock
			}
			enqueue(lockReq{node: sr.owner, key: ck, mode: r.mode, info: r.info,
				chain: append([]string{frame}, r.chain...), pos: sr.site.pos})
		}
	}
	return out
}

// rootIsFormal reports whether obj is n's receiver or one of its
// parameters — the only roots a caller can be asked to hold a lock for.
func rootIsFormal(n *cgNode, obj types.Object) bool {
	sig, ok := n.fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() != nil && sig.Recv() == obj {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return true
		}
	}
	return false
}

// formalRef maps n's receiver/parameter object to the corresponding
// expression path at one call site.
func formalRef(n *cgNode, obj types.Object, site *lockCallSite) (argRef, bool) {
	sig, ok := n.fn.Type().(*types.Signature)
	if !ok {
		return argRef{}, false
	}
	if sig.Recv() != nil && sig.Recv() == obj {
		return site.recv, true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			if i < len(site.args) {
				return site.args[i], true
			}
			return argRef{}, false
		}
	}
	return argRef{}, false
}
