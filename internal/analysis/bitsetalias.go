package analysis

import (
	"go/ast"
	"go/types"
)

// BitsetAliasAnalyzer enforces the clone-before-mutate convention for
// *bitset.Set values: row/item support sets are shared and borrowed
// across the row-enumeration tree (CARPENTER-style projections), so
// in-place mutators may only run on sets the mutating code owns — sets
// it allocated itself, cloned, or holds in its own receiver's fields.
//
// A mutator call is flagged when its receiver is "borrowed":
//
//   - the direct result of a call into another package that is not a
//     bitset constructor or pure-algebra function, e.g.
//     ds.ItemRows(i).IntersectWith(...) — the dataset's inverted index
//     would be corrupted in place;
//   - a field of a struct other than the enclosing method's receiver
//     (mutating your own fields is ownership, mutating someone else's
//     is aliasing);
//   - a local variable whose most recent assignment came from either of
//     the above without an intervening Clone().
var BitsetAliasAnalyzer = &Analyzer{
	Name: "bitsetalias",
	Doc:  "flags in-place mutation of *bitset.Set values borrowed from other packages or foreign structs without an intervening Clone()",
	Run:  runBitsetAlias,
}

// bitsetMutators are the in-place *bitset.Set methods.
var bitsetMutators = map[string]bool{
	"Add":                 true,
	"Remove":              true,
	"Clear":               true,
	"Fill":                true,
	"IntersectWith":       true,
	"UnionWith":           true,
	"DifferenceWith":      true,
	"CopyFrom":            true,
	"IntersectInto":       true,
	"IntersectCountBelow": true,
}

// ownership classification for a *bitset.Set expression.
type setOrigin int

const (
	originUnknown  setOrigin = iota // parameters, same-package helpers: trusted
	originFresh                     // locally allocated or cloned
	originBorrowed                  // foreign accessor result or foreign field
)

func runBitsetAlias(pass *Pass) {
	if isBitsetPkgPath(pass.Pkg.Path) {
		return // the bitset package mutates its own representation freely
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncBitsetAlias(pass, fd)
		}
	}
}

// checkFuncBitsetAlias walks one function body in source order,
// tracking the origin of *bitset.Set locals, and reports mutator calls
// on borrowed receivers.
func checkFuncBitsetAlias(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	// The receiver object, if any: mutating fields reached through it is
	// the owner updating its own state.
	var recvObj types.Object
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recvObj = info.Defs[fd.Recv.List[0].Names[0]]
	}

	origins := map[types.Object]setOrigin{}

	var classify func(expr ast.Expr) setOrigin
	classify = func(expr ast.Expr) setOrigin {
		switch e := ast.Unparen(expr).(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, e)
			if fn == nil {
				return originUnknown
			}
			if !returnsBitsetPtr(fn) {
				return originUnknown
			}
			if pass.Facts.Fresh[fn] {
				return originFresh
			}
			if fn.Pkg() != nil && fn.Pkg() != pass.Pkg.Types {
				return originBorrowed
			}
			return originUnknown
		case *ast.SelectorExpr:
			sel, ok := info.Selections[e]
			if !ok || sel.Kind() != types.FieldVal {
				return originUnknown
			}
			if base, ok := ast.Unparen(e.X).(*ast.Ident); ok && recvObj != nil && info.Uses[base] == recvObj {
				return originUnknown // the method's own receiver
			}
			return originBorrowed
		case *ast.IndexExpr:
			return classify(e.X)
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return origins[obj]
			}
			return originUnknown
		case *ast.CompositeLit, *ast.UnaryExpr:
			return originFresh
		}
		return originUnknown
	}

	assign := func(lhs ast.Expr, origin setOrigin) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); !ok || !isBitsetPtr(v.Type()) {
			return
		}
		origins[obj] = origin
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					assign(lhs, classify(n.Rhs[i]))
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, name := range n.Names {
					assign(name, classify(n.Values[i]))
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !bitsetMutators[sel.Sel.Name] {
				return true
			}
			fn, _ := info.Uses[sel.Sel].(*types.Func)
			if fn == nil || fn.Pkg() == nil || !isBitsetPkgPath(fn.Pkg().Path()) {
				return true
			}
			if classify(sel.X) == originBorrowed {
				pass.Reportf(n.Pos(),
					"in-place %s on a bitset borrowed from another package or struct; Clone() before mutating",
					sel.Sel.Name)
			}
		}
		return true
	})
}

// returnsBitsetPtr reports whether fn has a *bitset.Set among its
// results.
func returnsBitsetPtr(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isBitsetPtr(res.At(i).Type()) {
			return true
		}
	}
	return false
}
