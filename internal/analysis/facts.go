package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Facts is module-wide knowledge shared by all analyzers:
//
//   - Fresh holds the bitset package's own constructors and
//     pure-algebra functions (New, FromIndices, Clone, Intersect, Union,
//     Difference), which always return a newly allocated set;
//     bitsetalias treats their results as owned.
//   - AllocFree holds functions whose doc comment carries the
//     "vet:allocfree" marker; the allocfree analyzer proves they
//     compile without heap escapes.
//   - Sentinels holds package-level error variables (errors.New-style
//     sentinels); sentinelwrap bans ==/!= comparisons against them.
//   - Escapes is the parsed -gcflags=-m output; nil until the driver
//     (or a test) calls ComputeEscapes, in which case allocfree reports
//     a configuration finding rather than silently passing.
type Facts struct {
	Fresh     map[types.Object]bool
	AllocFree map[types.Object]bool
	Sentinels map[types.Object]bool
	Escapes   *EscapeSet

	funcDecls map[types.Object]*ast.FuncDecl
}

// FuncDecl returns the declaration of a module function object, or nil,
// so the allocfree panic-path exemption can inspect callee bodies across
// package boundaries.
func (f *Facts) FuncDecl(obj types.Object) *ast.FuncDecl {
	return f.funcDecls[obj]
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

// ComputeFacts scans the given packages' declarations for the bitset
// built-ins, vet:allocfree annotations and error sentinels.
func ComputeFacts(pkgs []*Package) *Facts {
	facts := &Facts{
		Fresh:     map[types.Object]bool{},
		AllocFree: map[types.Object]bool{},
		Sentinels: map[types.Object]bool{},
		funcDecls: map[types.Object]*ast.FuncDecl{},
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
					facts.funcDecls[obj] = d
					if hasDirective(d.Doc, "//vet:allocfree") {
						facts.AllocFree[obj] = true
					}
					if inBitset && bitsetFresh[d.Name.Name] {
						facts.Fresh[obj] = true
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, name := range spec.(*ast.ValueSpec).Names {
							if obj := pkg.Info.Defs[name]; obj != nil && implementsError(obj.Type()) {
								facts.Sentinels[obj] = true
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
