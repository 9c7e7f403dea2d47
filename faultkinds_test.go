package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"

	"repro/internal/faults"
)

// faultTargets are the two faults.Target implementations: the function
// that strikes a fault and the one that repairs it, each a switch on the
// fault's kind.
var faultTargets = []struct {
	name, file, inject, recover string
}{
	{"dhlsys", "internal/dhlsys/faults.go", "injectFault", "recoverFault"},
	{"tubenet.Campus", "internal/tubenet/campus.go", "Inject", "Recover"},
}

// kindNames returns the faults.Kind constants' names in iota order, read
// from the const block that declares them.
func kindNames(t *testing.T, fset *token.FileSet) []string {
	t.Helper()
	f, err := parser.ParseFile(fset, "internal/faults/faults.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
			continue
		}
		first := gd.Specs[0].(*ast.ValueSpec)
		if typ, ok := first.Type.(*ast.Ident); !ok || typ.Name != "Kind" {
			continue
		}
		var names []string
		for _, spec := range gd.Specs {
			for _, n := range spec.(*ast.ValueSpec).Names {
				if n.Name == "numKinds" {
					return names
				}
				names = append(names, n.Name)
			}
		}
	}
	t.Fatal("internal/faults/faults.go: no Kind const block ending in numKinds")
	return nil
}

// caseKinds returns the faults.<Name> case labels in the body of the
// function fn declared in file.
func caseKinds(t *testing.T, fset *token.FileSet, file, fn string) []string {
	t.Helper()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn {
			continue
		}
		var names []string
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if sel, ok := e.(*ast.SelectorExpr); ok {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "faults" {
							names = append(names, sel.Sel.Name)
						}
					}
				}
			}
			return true
		})
		slices.Sort(names)
		return names
	}
	t.Fatalf("%s: no func %s", file, fn)
	return nil
}

// TestEveryFaultKindHasOneTarget checks that each faults.Kinds entry is
// struck and repaired by exactly one fault target, and that every case of
// a target's switches names a kind. A new kind that neither switch
// handles would otherwise be ignored by both without a trace.
func TestEveryFaultKindHasOneTarget(t *testing.T) {
	fset := token.NewFileSet()
	names := kindNames(t, fset)
	if len(names) != len(faults.Kinds()) {
		t.Fatalf("Kind const block names %d kinds %v, faults.Kinds() has %d", len(names), names, len(faults.Kinds()))
	}
	handledBy := map[string][]string{}
	for _, tg := range faultTargets {
		inject := caseKinds(t, fset, tg.file, tg.inject)
		recover := caseKinds(t, fset, tg.file, tg.recover)
		if !slices.Equal(inject, recover) {
			t.Errorf("%s strikes %v but repairs %v", tg.name, inject, recover)
		}
		for _, n := range inject {
			if !slices.Contains(names, n) {
				t.Errorf("%s handles faults.%s, which is not a fault kind", tg.name, n)
			}
			handledBy[n] = append(handledBy[n], tg.name)
		}
	}
	for i, k := range faults.Kinds() {
		if got := handledBy[names[i]]; len(got) != 1 {
			t.Errorf("fault kind %v (faults.%s) is handled by %d targets %v, want exactly one", k, names[i], len(got), got)
		}
	}
}
