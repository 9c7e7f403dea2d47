package lint

import "go/ast"

// flowRule is one forward dataflow rule over a function body. walkFlow owns
// the statement structure — source order, which expressions a statement
// evaluates, where a branch starts — and asks the rule three things: what an
// expression or an assignment target does, how to handle the statements the
// rule models itself, and the state a branch starts from.
type flowRule interface {
	// expr evaluates one expression, which may be nil, for its effects.
	expr(e ast.Expr)
	// write handles an assignment target, which may be nil, that receives
	// no value the rule can name: a range key or value, the operand of ++
	// or --.
	write(e ast.Expr)
	// stmt handles s when it is one of the rule's own statements and
	// reports whether it did; walkFlow walks every other statement.
	stmt(s ast.Stmt) bool
	// branch returns the rule to walk a branch or loop body with.
	branch() flowRule
}

// walkFlow walks a statement list in source order.
func walkFlow(r flowRule, list []ast.Stmt) {
	for _, s := range list {
		flowStmt(r, s)
	}
}

// flowStmt walks one statement; s may be nil (an absent init, post or
// else).
func flowStmt(r flowRule, s ast.Stmt) {
	if s == nil || r.stmt(s) {
		return
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		r.expr(s.X)
	case *ast.GoStmt:
		r.expr(s.Call)
	case *ast.DeferStmt:
		r.expr(s.Call)
	case *ast.SendStmt:
		r.expr(s.Chan)
		r.expr(s.Value)
	case *ast.IncDecStmt:
		r.write(s.X)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			r.expr(e)
		}
	case *ast.BlockStmt:
		walkFlow(r, s.List)
	case *ast.LabeledStmt:
		flowStmt(r, s.Stmt)
	case *ast.IfStmt:
		flowStmt(r, s.Init)
		r.expr(s.Cond)
		walkFlow(r.branch(), s.Body.List)
		if s.Else != nil {
			flowStmt(r.branch(), s.Else)
		}
	case *ast.ForStmt:
		flowStmt(r, s.Init)
		r.expr(s.Cond)
		body := r.branch()
		walkFlow(body, s.Body.List)
		flowStmt(body, s.Post)
	case *ast.RangeStmt:
		r.expr(s.X)
		r.write(s.Key)
		r.write(s.Value)
		walkFlow(r.branch(), s.Body.List)
	case *ast.SwitchStmt:
		flowStmt(r, s.Init)
		r.expr(s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				r.expr(e)
			}
			walkFlow(r.branch(), cc.Body)
		}
	case *ast.TypeSwitchStmt:
		flowStmt(r, s.Init)
		flowStmt(r, s.Assign)
		for _, c := range s.Body.List {
			walkFlow(r.branch(), c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			in := r.branch()
			flowStmt(in, cc.Comm)
			walkFlow(in, cc.Body)
		}
	}
}
