package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// AllocFreeAnalyzer turns the kernel's zero-allocation contract from a
// runtime property (testing.AllocsPerRun) into a compile-time one. A
// function annotated with "vet:allocfree" in its doc comment must
// produce no heap-escape diagnostics from the compiler's own escape
// analysis (go build -gcflags=-m), as collected by ComputeEscapes.
//
// Panic preconditions are exempt: an allocation that happens only while
// constructing a panic value (panic(fmt.Sprintf(...)) directly, or via
// an inlined guard-and-panic helper like bitset.mustMatch) never runs
// on the steady-state path, so it cannot violate the contract the
// AllocsPerRun tests measure.
var AllocFreeAnalyzer = &Analyzer{
	Name: "allocfree",
	Doc:  "functions annotated //vet:allocfree must compile with zero heap escapes",
	Run:  runAllocFree,
}

func runAllocFree(pass *Pass) {
	var annotated []*ast.FuncDecl
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj := pass.Pkg.Info.Defs[d.Name]; obj != nil && pass.Facts.AllocFree[obj] {
				annotated = append(annotated, d)
			}
		}
	}
	if len(annotated) == 0 {
		return
	}
	if pass.Facts.Escapes == nil {
		// Refuse to pass vacuously: a mis-wired driver must fail loudly,
		// not certify the kernel allocation-free without evidence.
		pass.Reportf(annotated[0].Name.Pos(),
			"vet:allocfree annotations present but escape diagnostics were not computed; run through cmd/vetsuite or call ComputeEscapes first")
		return
	}
	for _, d := range annotated {
		tf := pass.Fset.File(d.Pos())
		if tf == nil {
			continue
		}
		file, err := filepath.Abs(tf.Name())
		if err != nil {
			file = tf.Name()
		}
		start := pass.Fset.Position(d.Pos()).Line
		end := pass.Fset.Position(d.End()).Line
		for _, diag := range pass.Facts.Escapes.ForFile(file) {
			if diag.Line < start || diag.Line > end {
				continue
			}
			pos := posOnLine(tf, diag.Line, diag.Col)
			if onPanicPath(pass, d, pos) {
				continue
			}
			pass.Reportf(pos, "%s is annotated vet:allocfree but the compiler reports: %s", d.Name.Name, diag.Msg)
		}
	}
}

// posOnLine maps a 1-based line/column pair back to a token.Pos inside
// tf, clamping out-of-range input to the line (or file) start.
func posOnLine(tf *token.File, line, col int) token.Pos {
	if line < 1 || line > tf.LineCount() {
		return tf.Pos(0)
	}
	pos := tf.LineStart(line) + token.Pos(col-1)
	if !pos.IsValid() || int(pos) > tf.Base()+tf.Size() {
		return tf.LineStart(line)
	}
	return pos
}

// onPanicPath reports whether the escape diagnostic at pos is
// attributable to a panic precondition: the innermost enclosing nodes
// include a call to the panic builtin, or a call to a module function
// whose body is nothing but guard-and-panic checks (the compiler
// re-attributes an inlined callee's escapes to the call expression).
func onPanicPath(pass *Pass, decl *ast.FuncDecl, pos token.Pos) bool {
	for _, n := range enclosingChain(decl, pos) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
		if fn := calleeFunc(pass.Pkg.Info, call); fn != nil && guardPanicOnly(pass.Facts.FuncDecl(fn)) {
			return true
		}
	}
	return false
}

// enclosingChain returns the nodes of root that contain pos, outermost
// first.
func enclosingChain(root ast.Node, pos token.Pos) []ast.Node {
	var chain []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && pos < n.End() {
			chain = append(chain, n)
			return true
		}
		return false
	})
	return chain
}

// guardPanicOnly reports whether a function body consists solely of
// guard-and-panic precondition checks (like bitset.mustMatch), meaning
// every allocation it performs lies on a panic path.
func guardPanicOnly(d *ast.FuncDecl) bool {
	if d == nil || d.Body == nil || len(d.Body.List) == 0 {
		return false
	}
	for _, stmt := range d.Body.List {
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok || ifs.Else != nil {
			return false
		}
		if len(ifs.Body.List) != 1 {
			return false
		}
		es, ok := ifs.Body.List[0].(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "panic" {
			return false
		}
	}
	return true
}
