package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer protects the cancellation paths threaded through
// engine, rcbt, jobs and serve. Three rules:
//
//  1. context.Context must be the first parameter of any function that
//     takes one (after the receiver), matching the stdlib convention
//     every caller in the repo assumes.
//  2. context.Background() and context.TODO() are banned outside
//     package main (and tests, which the loader never parses): a
//     library that mints its own root context detaches itself from the
//     caller's cancellation, which is exactly how a shutdown deadline
//     stops propagating into a long mining run. Deliberate roots (the
//     context-free convenience wrappers) carry a vetsuite:allow marker
//     with the justification.
//  3. A declared ctx parameter must actually be used — an ignored ctx
//     is a forwarding break: the caller believes cancellation reaches
//     the callee's work, but it stops right there.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "context must be the first parameter, forwarded rather than re-minted; Background/TODO stay in main",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	info := pass.Pkg.Info
	inMain := pass.Pkg.Types != nil && pass.Pkg.Types.Name() == "main"
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if inMain {
					return true
				}
				fn := calleeFunc(info, n)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
					return true
				}
				if fn.Name() == "Background" || fn.Name() == "TODO" {
					pass.Reportf(n.Pos(),
						"context.%s() mints a root context in a non-main package, detaching this path from the caller's cancellation; accept and forward a ctx parameter instead",
						fn.Name())
				}
			case *ast.FuncDecl:
				checkCtxParams(pass, n.Type, n.Body, n.Name.Name)
			}
			return true
		})
	}
}

// checkCtxParams enforces ctx-first ordering and ctx-actually-used on
// one function declaration.
func checkCtxParams(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt, name string) {
	if ft.Params == nil {
		return
	}
	info := pass.Pkg.Info
	pos := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		tv, ok := info.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			pos += n
			continue
		}
		if pos != 0 {
			pass.Reportf(field.Pos(),
				"context.Context is parameter %d of %s; it must come first so call sites read uniformly and forwarding mistakes stand out",
				pos+1, name)
		}
		if body != nil {
			for _, pname := range field.Names {
				if pname.Name == "_" {
					continue
				}
				obj := info.Defs[pname]
				if obj == nil {
					continue
				}
				if !identUsed(info, body, obj) {
					pass.Reportf(pname.Pos(),
						"ctx parameter of %s is never used: cancellation stops propagating here; forward it to the blocking work or name it _",
						name)
				}
			}
		}
		pos += n
	}
}

// identUsed reports whether obj is referenced anywhere inside body.
func identUsed(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
		}
		return true
	})
	return used
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
