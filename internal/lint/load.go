package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, with the syntax and type
// information the analyzers consume.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks module packages on demand, resolving
// module-internal imports recursively and standard-library imports through
// the toolchain's export data (falling back to type-checking the stdlib
// from source). Pure stdlib: go/parser + go/types + go/importer.
type Loader struct {
	fset    *token.FileSet
	root    string
	modpath string
	gc      types.Importer
	src     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader builds a loader for the module at root with the given module
// path.
func NewLoader(root, modpath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    root,
		modpath: modpath,
		gc:      importer.ForCompiler(fset, "gc", nil),
		src:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

func (l *Loader) isModulePath(path string) bool {
	return path == l.modpath || strings.HasPrefix(path, l.modpath+"/")
}

func (l *Loader) dirFor(path string) string {
	if path == l.modpath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modpath+"/")))
}

// Load returns the type-checked package for a module import path,
// memoized across calls.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir := l.dirFor(importPath)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: importerFunc(l.importDep),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-check %s: %w", importPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", importPath, err)
	}
	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// loadAll loads each import path in order.
func (l *Loader) loadAll(importPaths []string) ([]*Package, error) {
	pkgs := make([]*Package, 0, len(importPaths))
	for _, ip := range importPaths {
		pkg, err := l.Load(ip)
		if err != nil {
			return nil, fmt.Errorf("lint: load %s: %w", ip, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// importDep resolves one import for the type checker.
func (l *Loader) importDep(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isModulePath(path) {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if pkg, err := l.gc.Import(path); err == nil {
		return pkg, nil
	}
	return l.src.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseDir parses the non-test Go files directly in dir (no recursion),
// keeping comments so the //dhllint:allow escape hatch is visible.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		// A directory may legally hold one extra package (e.g. an
		// ignored tool); keep the first package seen and its files.
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// ModulePackages walks the module tree and returns the import path of
// every package directory, skipping testdata, hidden, and underscore
// directories. Paths come back sorted.
func ModulePackages(root, modpath string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, modpath)
		} else {
			out = append(out, modpath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
