package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// UncheckedErrAnalyzer flags dropped error returns in the packages that
// talk to the outside world: cmd/ binaries, the internal/bench and
// internal/report writers, the internal/serve HTTP layer, the
// internal/jobs journal, the internal/datastore snapshot persistence,
// and internal/atomicfile, the one temp-file-and-rename writer under
// both. A call whose error result is discarded by an expression
// statement (or a deferred call) silently loses ENOSPC on result files,
// truncated model saves, and torn job journals.
//
// Deliberate best-effort calls remain expressible: assign to _
// explicitly, or annotate // vetsuite:allow uncheckederr -- <reason>.
// Formatted printing is exempt when it cannot meaningfully fail or when
// the destination is the process's own terminal: fmt.Print* (stdout),
// fmt.Fprint* to os.Stdout/os.Stderr, to an io.Writer interface value
// (the caller owns the sink), or to strings.Builder/bytes.Buffer
// (documented never to fail) — but fmt.Fprint* straight to a concrete
// *os.File is flagged.
var UncheckedErrAnalyzer = &Analyzer{
	Name: "uncheckederr",
	Doc:  "flags dropped error returns in cmd/, internal/bench, internal/report, internal/serve, internal/jobs, internal/datastore and internal/atomicfile",
	Run:  runUncheckedErr,
}

// uncheckedErrScope reports whether a package path is in the analyzer's
// scope.
func uncheckedErrScope(path string) bool {
	return strings.Contains(path, "/cmd/") ||
		strings.HasSuffix(path, "/internal/bench") ||
		strings.HasSuffix(path, "/internal/report") ||
		strings.HasSuffix(path, "/internal/serve") ||
		strings.HasSuffix(path, "/internal/jobs") ||
		strings.HasSuffix(path, "/internal/datastore") ||
		strings.HasSuffix(path, "/internal/atomicfile")
}

func runUncheckedErr(pass *Pass) {
	if !uncheckedErrScope(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	check := func(call *ast.CallExpr, deferred bool) {
		if !resultHasError(info, call) || exemptBestEffort(info, call) {
			return
		}
		what := "call"
		if deferred {
			what = "deferred call"
		}
		pass.Reportf(call.Pos(),
			"%s to %s drops its error result; handle it, assign to _ explicitly, or annotate // vetsuite:allow uncheckederr -- <reason>",
			what, calleeName(info, call))
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					check(call, false)
				}
			case *ast.DeferStmt:
				check(n.Call, true)
			case *ast.GoStmt:
				return true
			}
			return true
		})
	}
}

// resultHasError reports whether the call's result type is or contains
// error.
func resultHasError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "error" && obj.Pkg() == nil
}

// exemptBestEffort implements the fmt/builder exemptions.
func exemptBestEffort(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	name := fn.Name()
	// Methods on never-failing in-memory writers.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rt := sig.Recv().Type(); isNamedIn(rt, "strings", "Builder") || isNamedIn(rt, "bytes", "Buffer") {
			return true
		}
	}
	if pkg.Path() != "fmt" {
		return false
	}
	if strings.HasPrefix(name, "Print") {
		return true // implicit stdout
	}
	if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
		dst := ast.Unparen(call.Args[0])
		// os.Stdout / os.Stderr.
		if sel, ok := dst.(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if po, ok := info.Uses[id].(*types.PkgName); ok && po.Imported().Path() == "os" &&
					(sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr") {
					return true
				}
			}
		}
		if tv, ok := info.Types[dst]; ok && tv.Type != nil {
			t := tv.Type
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				return true // caller-owned io.Writer sink
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				if isNamedIn(ptr.Elem(), "strings", "Builder") || isNamedIn(ptr.Elem(), "bytes", "Buffer") {
					return true
				}
			}
		}
	}
	return false
}

// isNamedIn reports whether t (possibly behind a pointer) is the named
// type pkg.Name.
func isNamedIn(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// calleeName renders a readable callee for diagnostics.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())) + "." + fn.Name()
		}
		if fn.Pkg() != nil {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "function value"
}
