package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Facts is module-wide knowledge shared by all analyzers: which
// functions are documented to return freshly allocated bitsets, and
// which declarations are deprecated.
//
// A producer is "fresh" when its doc comment contains the marker
// "vetsuite:fresh", or when it is one of the bitset package's own
// constructors/pure-algebra methods (New, FromIndices, Clone,
// Intersect, Union, Difference), which always allocate.
//
// A declaration is deprecated when its doc comment has a paragraph
// starting with "Deprecated:", the standard Go convention.
//
// The contract-verification analyzers add two more tables plus the
// compiler's escape diagnostics:
//
//   - AllocFree holds functions whose doc comment carries the
//     "vet:allocfree" marker; the allocfree analyzer proves they
//     compile without heap escapes.
//   - Sentinels holds package-level error variables (errors.New-style
//     sentinels); sentinelwrap bans ==/!= comparisons against them.
//   - Escapes is the parsed -gcflags=-m output; nil until the driver
//     (or a test) calls ComputeEscapes, in which case allocfree reports
//     a configuration finding rather than silently passing.
type Facts struct {
	Fresh      map[types.Object]bool
	Deprecated map[types.Object]bool

	AllocFree map[types.Object]bool
	Sentinels map[types.Object]bool
	Escapes   *EscapeSet

	funcSites map[types.Object]FuncSite
}

// FuncSite locates a function declaration together with the package it
// was type-checked in, so interprocedural analyzers (visitoralias, the
// allocfree panic-path exemption) can inspect callee bodies across
// package boundaries.
type FuncSite struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// FuncSite returns the declaration site of a module function object.
func (f *Facts) FuncSite(obj types.Object) (FuncSite, bool) {
	site, ok := f.funcSites[obj]
	return site, ok
}

// bitsetFresh lists *bitset.Set-returning functions of the bitset
// package itself that are fresh by construction.
var bitsetFresh = map[string]bool{
	"New":         true,
	"FromIndices": true,
	"Clone":       true,
	"Intersect":   true,
	"Union":       true,
	"Difference":  true,
}

// ComputeFacts scans the given packages' declarations for
// vetsuite:fresh markers, Deprecated: doc paragraphs and the bitset
// built-ins.
func ComputeFacts(pkgs []*Package) *Facts {
	facts := &Facts{
		Fresh:      map[types.Object]bool{},
		Deprecated: map[types.Object]bool{},
		AllocFree:  map[types.Object]bool{},
		Sentinels:  map[types.Object]bool{},
		funcSites:  map[types.Object]FuncSite{},
	}
	for _, pkg := range pkgs {
		inBitset := isBitsetPkgPath(pkg.Path)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					if obj == nil {
						continue
					}
					facts.funcSites[obj] = FuncSite{Decl: d, Pkg: pkg}
					if d.Doc != nil && strings.Contains(d.Doc.Text(), "vetsuite:fresh") {
						facts.Fresh[obj] = true
					}
					if hasDirective(d.Doc, "//vet:allocfree") {
						facts.AllocFree[obj] = true
					}
					if inBitset && bitsetFresh[d.Name.Name] {
						facts.Fresh[obj] = true
					}
					if isDeprecatedDoc(d.Doc) {
						facts.Deprecated[obj] = true
					}
				case *ast.GenDecl:
					// Types, vars and consts: the GenDecl doc applies to
					// every spec, a per-spec doc only to its own.
					for _, spec := range d.Specs {
						var names []*ast.Ident
						var doc *ast.CommentGroup
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names, doc = []*ast.Ident{s.Name}, s.Doc
						case *ast.ValueSpec:
							names, doc = s.Names, s.Doc
							if d.Tok == token.VAR {
								for _, name := range s.Names {
									obj := pkg.Info.Defs[name]
									if obj != nil && implementsError(obj.Type()) {
										facts.Sentinels[obj] = true
									}
								}
							}
						default:
							continue
						}
						if !isDeprecatedDoc(doc) && !isDeprecatedDoc(d.Doc) {
							continue
						}
						for _, name := range names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								facts.Deprecated[obj] = true
							}
						}
					}
				}
			}
		}
	}
	return facts
}

// hasDirective reports whether a doc comment group contains a comment
// line starting with the given directive. Directive comments (the
// "//tool:rule" form) are stripped by CommentGroup.Text, so markers
// like //vet:allocfree must be searched in the raw comment list.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isDeprecatedDoc reports whether a doc comment has a paragraph
// starting with the conventional "Deprecated:" marker.
func isDeprecatedDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, para := range strings.Split(doc.Text(), "\n\n") {
		if strings.HasPrefix(strings.TrimSpace(para), "Deprecated:") {
			return true
		}
	}
	return false
}

// isBitsetPkgPath reports whether an import path is the bitset package.
func isBitsetPkgPath(path string) bool {
	return path == "bitset" || strings.HasSuffix(path, "/bitset")
}

// isBitsetPtr reports whether t is *bitset.Set.
func isBitsetPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isBitsetNamed(ptr.Elem())
}

// isBitsetNamed reports whether t is the named type bitset.Set.
func isBitsetNamed(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Set" && obj.Pkg() != nil && isBitsetPkgPath(obj.Pkg().Path())
}

// holdsBitsetPtr reports whether t is *bitset.Set or a slice, array or
// map holding *bitset.Set directly.
func holdsBitsetPtr(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return isBitsetNamed(u.Elem())
	case *types.Slice:
		return isBitsetPtr(u.Elem())
	case *types.Array:
		return isBitsetPtr(u.Elem())
	case *types.Map:
		return isBitsetPtr(u.Elem())
	}
	return false
}

// calleeFunc resolves the *types.Func a call invokes, or nil for calls
// through function values, builtins and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
