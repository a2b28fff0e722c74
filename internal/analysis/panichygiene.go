package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PanicHygieneAnalyzer inventories panic calls. If the miner is to grow
// into a serving system, library packages must not panic on
// data-dependent paths: panics are reserved for programmer-error
// precondition checks in internal/bitset, for re-raising a recovered
// value inside a recover handler, and for sites explicitly annotated
// // vetsuite:allow panic -- <reason>. (The enumeration engines
// abort via engine.ErrNodeBudget sentinel errors, not panics, so no
// miner needs the recover exemption anymore.)
var PanicHygieneAnalyzer = &Analyzer{
	Name:  "panichygiene",
	Alias: "panic",
	Doc:   "flags panic calls outside internal/bitset precondition checks, recover-based re-raises, and annotated sites",
	Run:   runPanicHygiene,
}

func runPanicHygiene(pass *Pass) {
	if isBitsetPkgPath(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		// All function nodes in the file, for innermost-enclosing lookup.
		var funcs []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcs = append(funcs, n)
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isBuiltin(info, call, "panic") {
				return true
			}
			// Re-raise exemption: the innermost enclosing function also
			// calls recover() directly — a recover handler propagating
			// foreign panics.
			if body := funcBody(innermostEnclosing(funcs, call.Pos())); body != nil && callsRecover(info, body) {
				return true
			}
			pass.Reportf(call.Pos(),
				"panic on a library path; return an error instead, or annotate // vetsuite:allow panic -- <reason>")
			return true
		})
	}
}

// funcBody returns the body of a FuncDecl or FuncLit, or nil.
func funcBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return nil
}

// innermostEnclosing returns the function node with the smallest span
// containing pos, or nil.
func innermostEnclosing(funcs []ast.Node, pos token.Pos) ast.Node {
	var best ast.Node
	for _, n := range funcs {
		if n.Pos() <= pos && pos <= n.End() {
			if best == nil || n.End()-n.Pos() < best.End()-best.Pos() {
				best = n
			}
		}
	}
	return best
}

// callsRecover reports whether body contains a direct recover() call
// (not nested in a further function literal).
func callsRecover(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(info, call, "recover") {
			found = true
			return false
		}
		return true
	})
	return found
}

// isBuiltin reports whether call invokes the named predeclared builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
