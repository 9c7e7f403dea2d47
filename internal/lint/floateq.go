package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runFloatEq flags exact ==/!= between two computed floating-point values.
// The models chain long float expressions (drag integrals, RAID
// geometry, launch kinematics); exact equality between two such results
// is almost always a latent bug. Comparisons against a constant (the
// zero sentinel, ±Inf) are deliberate and stay legal; everything else
// should go through a tolerance: math.Abs(a-b) <= eps.
func runFloatEq(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			tx, ty := info.Types[be.X], info.Types[be.Y]
			// A constant operand (0, 1, math.MaxFloat64…) marks a
			// deliberate sentinel comparison.
			if tx.Value != nil || ty.Value != nil {
				return true
			}
			if isFloat(tx.Type) && isFloat(ty.Type) {
				p.Report(be.OpPos, "exact %s between computed floats; compare with a tolerance (math.Abs(a-b) <= eps)", be.Op)
			}
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
