package analysis

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

// Package is one parsed and type-checked package of the module (or a
// test fixture loaded under a synthetic import path).
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File // non-test files, in filename order
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module without any
// dependency beyond the standard library. Imports within the module are
// resolved by mapping the import path onto the module directory tree
// and loading recursively; standard-library imports are delegated to
// the go/importer source importer (the module is dependency-free, so
// nothing else can occur).
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std  types.ImporterFrom
	pkgs map[string]*Package // by import path
}

// NewLoader creates a loader for the module rooted at moduleRoot
// (a directory containing go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: module root %s: %w", root, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        std,
		pkgs:       map[string]*Package{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from source through the loader itself, anything else goes to the
// standard-library source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// load returns the cached package for a module-internal import path,
// parsing and type-checking it on first use.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	return l.LoadDir(l.dirFor(path), path)
}

// LoadDir parses and type-checks the non-test Go files of one directory
// under the given import path. Fixture tests use this to load testdata
// packages under synthetic paths (e.g. a path below repro/cmd/ to put a
// fixture in an analyzer's scope).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	cfg := &types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadModule loads every package of the module (every directory with at
// least one non-test Go file, skipping testdata, hidden and underscore
// directories) and returns them in import-path order.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.ModuleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// Packages returns every module-internal package loaded so far, in
// import-path order.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
