package lint

import (
	"go/ast"
	"go/types"
)

// Determinism forbids ambient nondeterminism in model code. The
// repository's byte-identity guarantees (a seed replays byte for byte, the
// campus study's replicas fold the same totals on any worker count, the
// committed out/ artefacts regenerate unchanged) hold only if every model
// evaluation is a pure function of its inputs: no wall clock, no
// global-source randomness, no environment reads. Randomness must come
// from a seeded *rand.Rand threaded through a constructor; time must come
// from the simulation engine's virtual clock.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no time.Now, global-source rand, or env reads in model packages",
	Run:  runDeterminism,
}

// seededConstructors are the math/rand entry points that take an explicit
// seed or source and are therefore deterministic.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 seeded generators.
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(p *Pass) {
	if !p.Cfg.isModelPackage(p.Pkg.ImportPath) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Methods (e.g. a seeded rand.Rand's Float64) are fine; only
			// package-level functions reach ambient state.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					p.Report(id.Pos(), "time.%s reads the wall clock; model code must take time from the simulation engine or an injected clock", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !seededConstructors[fn.Name()] {
					p.Report(id.Pos(), "rand.%s draws from the global source; thread a seeded *rand.Rand through the constructor instead", fn.Name())
				}
			case "os":
				switch fn.Name() {
				case "Getenv", "LookupEnv", "Environ":
					p.Report(id.Pos(), "os.%s makes model output depend on the environment; pass configuration explicitly", fn.Name())
				}
			}
			return true
		})
	}
}
