package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runMapOrder flags `for range` over a map when the loop body does something
// iteration-order-sensitive — exactly the bug class that breaks the
// sweep's byte-identity guarantee:
//
//   - writing output (fmt print family, Write*/Encode methods);
//   - appending to a slice the function returns, unless that slice is
//     passed through sort before use;
//   - accumulating into a floating-point variable (float addition is not
//     associative, so the low bits depend on iteration order).
//
// Order-insensitive map loops (integer counting, min/max, set
// membership) are untouched.
func runMapOrder(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, fd := range funcDecls(f) {
			for _, r := range orderSensitiveRanges(p.Pkg.Info, fd) {
				p.Report(r.pos, "map iteration order %s; iterate a sorted key slice instead", r.reason)
			}
		}
	}
}

// rangeFinding is one order-sensitive map range: where it starts and why
// its body depends on iteration order.
type rangeFinding struct {
	pos    token.Pos
	reason string
}

// orderSensitiveRanges finds every map range in fd whose body is
// iteration-order-sensitive. Shared by the maporder analyzer and the call
// graph, which seeds purity taint at the same constructs.
func orderSensitiveRanges(info *types.Info, fd *ast.FuncDecl) []rangeFinding {
	returned := returnedObjects(info, fd)
	sorted := sortedObjects(info, fd.Body)

	var out []rangeFinding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if reason := orderSensitive(info, rs.Body, returned, sorted); reason != "" {
			out = append(out, rangeFinding{pos: rs.Pos(), reason: reason})
		}
		return true
	})
	return out
}

// returnedObjects collects the variables a function hands back: idents in
// return statements plus named result parameters.
func returnedObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// sortedObjects collects variables passed to the sort or slices packages
// anywhere in the body: appending map keys and sorting afterwards is the
// approved deterministic idiom.
func sortedObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

var printFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// ioWriter is a structural io.Writer, built without importing io's type
// data: interface { Write([]byte) (int, error) }.
var ioWriter = types.NewInterfaceType([]*types.Func{
	types.NewFunc(token.NoPos, nil, "Write", types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
		), false)),
}, nil).Complete()

// outputStreamPkgs are stdlib packages whose Write*/Encode methods emit
// into a stream even when the receiver is not itself an io.Writer
// (e.g. *json.Encoder).
var outputStreamPkgs = map[string]bool{
	"fmt": true, "io": true, "bufio": true, "strings": true, "bytes": true,
	"encoding/json": true, "encoding/csv": true, "encoding/xml": true,
	"text/tabwriter": true, "text/template": true,
}

// isOutputMethod reports whether fn is a stream-writing method: named
// like a writer method AND either its receiver implements io.Writer or
// it belongs to a stdlib output package. A model type that merely calls
// its method "Write" (e.g. storage.Array.Write) is not output.
func isOutputMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !writeMethods[fn.Name()] {
		return false
	}
	recv := sig.Recv().Type()
	if types.Implements(recv, ioWriter) {
		return true
	}
	if _, isPtr := recv.Underlying().(*types.Pointer); !isPtr && types.Implements(types.NewPointer(recv), ioWriter) {
		return true
	}
	return fn.Pkg() != nil && outputStreamPkgs[fn.Pkg().Path()]
}

// orderSensitive reports why a map-range body depends on iteration order,
// or "" if it looks order-independent.
func orderSensitive(info *types.Info, body *ast.BlockStmt, returned, sorted map[types.Object]bool) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
					if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && printFuncs[fn.Name()] {
						reason = "reaches fmt output"
						return false
					}
					if isOutputMethod(fn) {
						reason = "reaches writer output"
						return false
					}
				}
			}
		case *ast.AssignStmt:
			if obj := appendTarget(info, n); obj != nil && returned[obj] && !sorted[obj] {
				reason = "flows into a returned slice"
				return false
			}
			if isFloatAccumulation(info, n) {
				reason = "accumulates a float sum (addition is not associative)"
				return false
			}
		}
		return true
	})
	return reason
}

// appendTarget returns the assigned variable of `x = append(x, ...)`, or
// nil if the statement is not an append.
func appendTarget(info *types.Info, as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, isBuiltin := info.Uses[fun].(*types.Builtin); !isBuiltin || fun.Name != "append" {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// isFloatAccumulation reports compound arithmetic assignment into a
// float-typed lvalue (f += x and friends).
func isFloatAccumulation(info *types.Info, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	if len(as.Lhs) != 1 {
		return false
	}
	t := info.TypeOf(as.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
