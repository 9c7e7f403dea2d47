package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The two dimension rules run from one analyzer, which skips the units
// package (it defines the sanctioned conversions).
//
// unitsafety catches the two dimension errors Go's type checker accepts,
// anywhere in a file: a direct conversion between two distinct units types
// (units.Seconds(bytes) is always wrong — convert through float64 with the
// formula spelled out), and a product of two non-constant values of one
// units type (Bytes × Bytes is bytes², which no variable in the model
// holds). Quotients of a shared unit are dimensionless and stay legal.
//
// dimflow restores dimensional checking across the raw-float64 escape
// hatch. The unitsafety rule stops at the `float64(...)` boundary: the
// moment a typed quantity is unwrapped, the type system — and unitsafety —
// can no longer see its dimension. This pass follows it. A float64 local
// born from a unit conversion (`float64(m)`) or a unit accessor
// (`t.Hours()`, `b.GBf()`) carries a dimension vector over the base axes
// (data, time, mass, length, money); energy and power are derived
// (J = g·m²·s⁻², W = J/s), so SI identities like ½mv² = kinetic energy
// hold. The vector propagates through + - * /, math.Abs/Min/Max/Sqrt, and
// assignments. Two findings:
//
//   - an addition or subtraction whose operands carry different known
//     dimensions (metres + seconds never means anything);
//   - a re-wrap into a unit type whose dimension disagrees with the
//     computed vector (units.Watts(joules × seconds)).
//
// Values of unknown provenance (parameters, struct fields, opaque calls)
// stay untagged and never flag, so the pass only speaks when both sides of
// a claim are traceable to typed quantities.

// dim is a dimension vector: exponents over the base axes. Scale is
// deliberately ignored (kg and g are both mass): the rule polices
// dimensions, not magnitudes.
type dim [5]int8

const (
	dimData = iota // bytes/bits
	dimTime
	dimMass
	dimLength
	dimMoney
)

var dimSymbols = [5]string{"B", "s", "g", "m", "$"}

// Derived dimensions, recognised on sight in diagnostics.
var (
	energyDim = dim{dimTime: -2, dimMass: 1, dimLength: 2} // J = g·m²·s⁻²
	powerDim  = dim{dimTime: -3, dimMass: 1, dimLength: 2} // W = J/s
)

func (d dim) String() string {
	switch d {
	case energyDim:
		return "J"
	case powerDim:
		return "W"
	}
	var parts []string
	for i, e := range d {
		switch {
		case e == 1:
			parts = append(parts, dimSymbols[i])
		case e != 0:
			parts = append(parts, fmt.Sprintf("%s^%d", dimSymbols[i], e))
		}
	}
	if len(parts) == 0 {
		return "dimensionless"
	}
	return strings.Join(parts, "·")
}

func (d dim) add(o dim) dim {
	for i := range d {
		d[i] += o[i]
	}
	return d
}

func (d dim) sub(o dim) dim {
	for i := range d {
		d[i] -= o[i]
	}
	return d
}

func (d dim) halve() (dim, bool) {
	for i := range d {
		if d[i]%2 != 0 {
			return dim{}, false
		}
		d[i] /= 2
	}
	return d, true
}

// unitDims maps each internal/units named type to its dimension vector.
var unitDims = map[string]dim{
	"Bytes":            {dimData: 1},
	"Seconds":          {dimTime: 1},
	"Joules":           energyDim,
	"Watts":            powerDim,
	"BitsPerSecond":    {dimData: 1, dimTime: -1},
	"BytesPerSecond":   {dimData: 1, dimTime: -1},
	"BytesPerGram":     {dimData: 1, dimMass: -1},
	"Grams":            {dimMass: 1},
	"GramsPerMetre":    {dimMass: 1, dimLength: -1},
	"Metres":           {dimLength: 1},
	"MetresPerSecond":  {dimLength: 1, dimTime: -1},
	"MetresPerSecond2": {dimLength: 1, dimTime: -2},
	"USD":              {dimMoney: 1},
	"USDPerKg":         {dimMoney: 1, dimMass: -1},
	"USDPerHour":       {dimMoney: 1, dimTime: -1},
	"USDPerKWh":        {dimMoney: 1, dimTime: 2, dimMass: -1, dimLength: -2}, // $/J
	"Ratio":            {},
}

// dimval is the abstract value of one float expression.
type dimval struct {
	state int // vUnknown, vFree, vKnown
	d     dim
}

const (
	vUnknown = iota // untraceable provenance; never flags
	vFree           // a bare constant: adapts to any dimension in + and -
	vKnown          // traceable to typed quantities; d is its dimension
)

var (
	unknownVal = dimval{state: vUnknown}
	freeVal    = dimval{state: vFree}
)

func known(d dim) dimval { return dimval{state: vKnown, d: d} }

// runDimFlow runs unitsafety and dimflow, each when enabled, over one
// package outside the units package.
func runDimFlow(p *Pass) {
	if p.Pkg.ImportPath == p.Cfg.UnitsPackage {
		return
	}
	if p.Cfg.ruleEnabled("unitsafety") {
		us := *p
		us.rule = "unitsafety"
		checkUnitOps(&us)
	}
	if !p.Cfg.ruleEnabled("dimflow") {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, fd := range funcDecls(f) {
			df := &dimFlow{p: p, info: p.Pkg.Info, env: make(map[types.Object]dimval)}
			walkFlow(df, fd.Body.List)
		}
	}
}

// dimFlow is the per-function walk state: an environment of tagged
// variables, threaded through the body in source order. Branches and loop
// bodies share the environment (a single forward pass), which matches how
// the model code is written; a variable that genuinely holds different
// dimensions on different paths is itself suspect.
type dimFlow struct {
	p    *Pass
	info *types.Info
	env  map[types.Object]dimval
}

// unitsType returns t's named type if the units package declares it, else
// nil.
func unitsType(cfg *Config, t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if pkg := named.Obj().Pkg(); pkg == nil || pkg.Path() != cfg.UnitsPackage {
		return nil
	}
	return named
}

func (df *dimFlow) unitDimOf(t types.Type) (dim, bool) {
	named := unitsType(df.p.Cfg, t)
	if named == nil {
		return dim{}, false
	}
	d, ok := unitDims[named.Obj().Name()]
	return d, ok
}

// checkUnitOps is the unitsafety walk: every cross-unit conversion and
// same-unit product anywhere in the package's files.
func checkUnitOps(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkUnitConversion(p, n)
			case *ast.BinaryExpr:
				if n.Op != token.MUL {
					return true
				}
				tx, ty := info.Types[n.X], info.Types[n.Y]
				// Constant factors (2 * units.PB) carry no dimension.
				if tx.Value != nil || ty.Value != nil {
					return true
				}
				nx, ny := unitsType(p.Cfg, tx.Type), unitsType(p.Cfg, ty.Type)
				if nx != nil && ny != nil && nx.Obj() == ny.Obj() {
					p.Report(n.OpPos, "%s × %s is not a %s; do the arithmetic in float64 and convert the result",
						nx.Obj().Name(), ny.Obj().Name(), nx.Obj().Name())
				}
			}
			return true
		})
	}
}

// checkUnitConversion flags T2(x) where both T2 and x's type are distinct
// named types of the units package.
func checkUnitConversion(p *Pass, call *ast.CallExpr) {
	info := p.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst := unitsType(p.Cfg, tv.Type)
	if dst == nil {
		return
	}
	src := unitsType(p.Cfg, info.TypeOf(call.Args[0]))
	if src == nil || src.Obj() == dst.Obj() {
		return
	}
	// Ratio(a/b) over a shared unit is a legal dimensionless quotient.
	if dst.Obj().Name() == "Ratio" && isSameUnitQuotient(info, call.Args[0]) {
		return
	}
	p.Report(call.Pos(), "converting %s directly to %s changes dimension; convert through float64 with the formula spelled out",
		src.Obj().Name(), dst.Obj().Name())
}

// isSameUnitQuotient reports whether e is a division of two operands of
// the same type (possibly parenthesised).
func isSameUnitQuotient(info *types.Info, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.QUO {
		return false
	}
	tx, ty := info.TypeOf(be.X), info.TypeOf(be.Y)
	return tx != nil && ty != nil && types.Identical(tx, ty)
}

func isFloatBasic(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// ---- statements ----

// dimFlow is a flowRule whose branches share its environment.

func (df *dimFlow) expr(e ast.Expr)  { df.eval(e) }
func (df *dimFlow) write(e ast.Expr) { df.eval(e) }
func (df *dimFlow) branch() flowRule { return df }

// stmt tags the variables that assignments and declarations bind.
func (df *dimFlow) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		df.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						df.set(df.info.Defs[name], df.eval(vs.Values[i]))
					}
				} else {
					for _, v := range vs.Values {
						df.eval(v)
					}
				}
			}
		}
	default:
		return false
	}
	return true
}

func (df *dimFlow) assign(as *ast.AssignStmt) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(as.Lhs) == len(as.Rhs) {
			vals := make([]dimval, len(as.Rhs))
			for i, r := range as.Rhs {
				vals[i] = df.eval(r)
			}
			for i, l := range as.Lhs {
				df.setExpr(l, vals[i])
			}
		} else {
			for _, r := range as.Rhs {
				df.eval(r)
			}
			for _, l := range as.Lhs {
				df.setExpr(l, unknownVal)
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		lv, rv := df.eval(as.Lhs[0]), df.eval(as.Rhs[0])
		if lv.state == vKnown && rv.state == vKnown && lv.d != rv.d {
			df.p.Report(as.TokPos, "%s %s %s mixes dimensions; both sides of %s must agree",
				lv.d, as.Tok, rv.d, as.Tok)
		}
		if lv.state == vFree && rv.state == vKnown {
			df.setExpr(as.Lhs[0], rv)
		}
	case token.MUL_ASSIGN:
		lv, rv := df.eval(as.Lhs[0]), df.eval(as.Rhs[0])
		df.setExpr(as.Lhs[0], combineMul(lv, rv))
	case token.QUO_ASSIGN:
		lv, rv := df.eval(as.Lhs[0]), df.eval(as.Rhs[0])
		df.setExpr(as.Lhs[0], combineQuo(lv, rv))
	default:
		for _, r := range as.Rhs {
			df.eval(r)
		}
		for _, l := range as.Lhs {
			df.setExpr(l, unknownVal)
		}
	}
}

func (df *dimFlow) setExpr(l ast.Expr, v dimval) {
	if id, ok := l.(*ast.Ident); ok {
		obj := df.info.Defs[id]
		if obj == nil {
			obj = df.info.Uses[id]
		}
		df.set(obj, v)
		return
	}
	df.eval(l) // index/field lvalues: walk for nested findings, no tag
}

func (df *dimFlow) set(obj types.Object, v dimval) {
	if obj == nil {
		return
	}
	df.env[obj] = v
}

// ---- expressions ----

func (df *dimFlow) eval(e ast.Expr) dimval {
	switch e := e.(type) {
	case nil:
		return unknownVal
	case *ast.ParenExpr:
		return df.eval(e.X)
	case *ast.BinaryExpr:
		return df.binary(e)
	case *ast.CallExpr:
		return df.call(e)
	case *ast.UnaryExpr:
		v := df.eval(e.X)
		if e.Op == token.ADD || e.Op == token.SUB {
			return v
		}
		return unknownVal
	case *ast.FuncLit:
		walkFlow(df, e.Body.List)
		return unknownVal
	}

	// Leaves and containers. Constants first: a named unit constant
	// (units.PB, units.Hour) carries its dimension; a bare literal is free
	// even when context types it (the 2 in `2*fill` is a count, not two
	// seconds).
	if tv, ok := df.info.Types[e]; ok && tv.Value != nil {
		if _, isLit := e.(*ast.BasicLit); !isLit {
			if d, ok := df.unitDimOf(tv.Type); ok {
				return known(d)
			}
		}
		return freeVal
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := df.info.Uses[e]; obj != nil {
			if v, ok := df.env[obj]; ok {
				return v
			}
		}
	case *ast.SelectorExpr:
		df.eval(e.X)
	case *ast.IndexExpr:
		df.eval(e.X)
		df.eval(e.Index)
	case *ast.SliceExpr:
		df.eval(e.X)
		df.eval(e.Low)
		df.eval(e.High)
		df.eval(e.Max)
	case *ast.StarExpr:
		df.eval(e.X)
	case *ast.TypeAssertExpr:
		df.eval(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				df.eval(kv.Value)
			} else {
				df.eval(el)
			}
		}
	}
	return unknownVal
}

func (df *dimFlow) binary(be *ast.BinaryExpr) dimval {
	vx, vy := df.eval(be.X), df.eval(be.Y)
	switch be.Op {
	case token.ADD, token.SUB:
		// String concatenation and integer arithmetic never carry tags,
		// so only traceable float operands can disagree here.
		if vx.state == vKnown && vy.state == vKnown && vx.d != vy.d {
			df.p.Report(be.OpPos, "%s %s %s mixes dimensions; both sides of %s must share one",
				vx.d, be.Op, vy.d, be.Op)
			return unknownVal
		}
		switch {
		case vx.state == vKnown:
			return vx
		case vy.state == vKnown:
			return vy
		case vx.state == vFree && vy.state == vFree:
			return freeVal
		}
		return unknownVal
	case token.MUL:
		return combineMul(vx, vy)
	case token.QUO:
		return combineQuo(vx, vy)
	}
	return unknownVal
}

// grounded maps free (a bare constant) to a known dimensionless scalar for
// multiplicative contexts: 2 × metres is metres.
func grounded(v dimval) dimval {
	if v.state == vFree {
		return known(dim{})
	}
	return v
}

func combineMul(x, y dimval) dimval {
	if x.state == vFree && y.state == vFree {
		return freeVal
	}
	x, y = grounded(x), grounded(y)
	if x.state != vKnown || y.state != vKnown {
		return unknownVal
	}
	return known(x.d.add(y.d))
}

func combineQuo(x, y dimval) dimval {
	if x.state == vFree && y.state == vFree {
		return freeVal
	}
	x, y = grounded(x), grounded(y)
	if x.state != vKnown || y.state != vKnown {
		return unknownVal
	}
	return known(x.d.sub(y.d))
}

func (df *dimFlow) call(call *ast.CallExpr) dimval {
	// Evaluate arguments first: nested violations surface regardless of
	// what the call itself means.
	args := make([]dimval, len(call.Args))
	for i, a := range call.Args {
		args[i] = df.eval(a)
	}

	// Conversions.
	if tv, ok := df.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if d, ok := df.unitDimOf(tv.Type); ok {
			// Re-wrap into a unit type: the computed dimension must
			// match the target's.
			if args[0].state == vKnown && args[0].d != d {
				named := tv.Type.(*types.Named)
				df.p.Report(call.Pos(), "wrapping a %s value in units.%s (%s) bends dimensions; fix the formula or the target type",
					args[0].d, named.Obj().Name(), d)
			}
			return known(d)
		}
		if isFloatBasic(tv.Type) {
			// float64(x): a typed quantity donates its dimension; a
			// float-to-float conversion passes the tag through.
			if d, ok := df.unitDimOf(df.info.TypeOf(call.Args[0])); ok {
				return known(d)
			}
			return args[0]
		}
		return unknownVal
	}

	if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		fn, ok := df.info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return df.resultDim(call)
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return df.resultDim(call)
		}
		// A no-arg float64 accessor on a unit type (t.Hours(), b.GBf(),
		// e.KJ()) yields the receiver's dimension at a different scale.
		if sig.Recv() != nil && len(call.Args) == 0 &&
			sig.Results().Len() == 1 && isFloatBasic(sig.Results().At(0).Type()) {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if d, ok := df.unitDimOf(recv); ok {
				return known(d)
			}
			return unknownVal
		}
		switch fn.Pkg().Path() {
		case "math":
			switch fn.Name() {
			case "Abs":
				if len(args) == 1 {
					return args[0]
				}
			case "Min", "Max":
				if len(args) == 2 {
					x, y := grounded(args[0]), grounded(args[1])
					if x.state == vKnown && y.state == vKnown && x.d == y.d {
						return x
					}
				}
			case "Sqrt":
				if len(args) == 1 {
					if args[0].state == vFree {
						return freeVal
					}
					if args[0].state == vKnown {
						if half, ok := args[0].d.halve(); ok {
							return known(half)
						}
					}
				}
			}
		case df.p.Cfg.UnitsPackage:
			if fn.Name() == "GBPerJoule" {
				return known(dim{dimData: 1}.sub(energyDim))
			}
		}
	}
	return df.resultDim(call)
}

// resultDim tags a call by its static result type: a function whose single
// result is a unit type (units.Energy, a .Cost helper) delivers that
// dimension by construction, whatever its body does.
func (df *dimFlow) resultDim(call *ast.CallExpr) dimval {
	if d, ok := df.unitDimOf(df.info.TypeOf(call)); ok {
		return known(d)
	}
	return unknownVal
}
