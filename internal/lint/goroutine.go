package lint

import (
	"go/ast"
	"go/types"
)

// runGoroutine keeps concurrency where the determinism story can see it.
// internal/sweep's bounded pool (campus study replicas, dhllint's
// per-package pass) is the one package allowed to spawn goroutines; any
// other `go` statement needs a justified allow, because a stray one
// reorders float accumulations and interleaves output. The rule also catches the
// classic WaitGroup race — calling Add inside the spawned closure, after
// Wait may already have returned.
func runGoroutine(p *Pass) {
	allowedPkg := p.Cfg.goroutineAllowed(p.Pkg.ImportPath)
	for _, f := range p.Pkg.Files {
		bindings := funcLitBindings(p.Pkg.Info, f)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !allowedPkg {
				p.Report(g.Pos(), "goroutine outside the sweep worker pool; route concurrency through internal/sweep or justify with an allow")
			}
			if lit := spawnedLit(p.Pkg.Info, g.Call, bindings); lit != nil {
				p.checkAddInClosure(lit)
			}
			return true
		})
	}
}

// spawnedLit resolves the closure a go statement runs: a literal spelled
// inline, or a single-assignment function-value binding (f := func(){...};
// go f()).
func spawnedLit(info *types.Info, call *ast.CallExpr, bindings map[*types.Var]*ast.FuncLit) *ast.FuncLit {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun
	case *ast.Ident:
		if v, ok := info.Uses[fun].(*types.Var); ok {
			return bindings[v]
		}
	}
	return nil
}

// funcLitBindings maps each function-typed variable assigned exactly once
// in the file to the literal it holds. A variable assigned twice is
// dropped: the binding is no longer statically known at the go statement.
func funcLitBindings(info *types.Info, f *ast.File) map[*types.Var]*ast.FuncLit {
	lits := make(map[*types.Var]*ast.FuncLit)
	assigns := make(map[*types.Var]int)
	bind := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		assigns[v]++
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			lits[v] = lit
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					bind(x.Lhs[i], x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					bind(x.Names[i], x.Values[i])
				}
			}
		}
		return true
	})
	for v, n := range assigns {
		if n > 1 {
			delete(lits, v)
		}
	}
	return lits
}

// checkAddInClosure flags sync.WaitGroup.Add calls lexically inside a
// goroutine's closure: Add must happen-before the go statement or Wait
// can return early.
func (p *Pass) checkAddInClosure(lit *ast.FuncLit) {
	info := p.Pkg.Info
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Name() != "Add" {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		if isWaitGroup(sig.Recv().Type()) {
			p.Report(call.Pos(), "WaitGroup.Add inside the spawned goroutine races with Wait; call Add before the go statement")
		}
		return true
	})
}

func isWaitGroup(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
