package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// VisitorAliasAnalyzer enforces the engine.Visitor aliasing contract
// (rowenum.go): every slice and bitset a visitor hook receives aliases
// the engine's per-worker scratch arena and is valid only for the
// duration of the call. A hook that retains a parameter-derived
// *bitset.Set or slice — by storing it into a field, appending it to a
// retained slice, capturing it in a composite literal, sending it on a
// channel, or handing it to a goroutine — without an intervening
// Clone()/copy corrupts groups mined later, silently.
//
// The pass taints the arena-backed parameters of OnGroup, PruneOnEntry
// and UpdateThresholds implementations and follows the taint through local
// assignments, same-package calls (including closures bound to local
// variables), and append chains. Copies launder taint: Clone(),
// copy(dst, src), and append of a spread []int (contents are copied by
// value). Calls into other packages are assumed to scan, not retain —
// the contract's enforcement boundary is the visitor implementation
// itself.
var VisitorAliasAnalyzer = &Analyzer{
	Name: "visitoralias",
	Doc:  "visitor hooks must not retain arena-aliased parameters without Clone()/copy",
	Run:  runVisitorAlias,
}

// visitorHookNames are the engine.Visitor methods whose slice/bitset
// parameters alias the enumeration arena.
var visitorHookNames = map[string]bool{
	"OnGroup":          true,
	"PruneOnEntry":     true,
	"UpdateThresholds": true,
}

func runVisitorAlias(pass *Pass) {
	va := &visitorAliasRun{
		pass:     pass,
		memo:     map[visitorAliasKey]bool{},
		active:   map[visitorAliasKey]bool{},
		reported: map[token.Pos]bool{},
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Recv == nil || d.Body == nil || !visitorHookNames[d.Name.Name] {
				continue
			}
			tainted := map[types.Object]bool{}
			for _, field := range d.Type.Params.List {
				tv, ok := pass.Pkg.Info.Types[field.Type]
				if !ok || !arenaParamType(tv.Type) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Pkg.Info.Defs[name]; obj != nil {
						tainted[obj] = true
					}
				}
			}
			if len(tainted) > 0 {
				va.analyzeBody(d.Type, d.Body, tainted)
			}
		}
	}
}

// arenaParamType reports whether a hook parameter of this type aliases
// arena memory: *bitset.Set, []int (row/item index slices), or any
// container of *bitset.Set.
func arenaParamType(t types.Type) bool {
	if t == nil {
		return false
	}
	if isBitsetPtr(t) || holdsBitsetPtr(t) {
		return true
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		if b, ok := sl.Elem().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return true
		}
	}
	return false
}

// refLike reports whether a value of type t can itself carry an alias
// of arena memory when moved around (pointers, slices, maps, chans,
// interfaces). Plain ints and structs move by value.
func refLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

type visitorAliasKey struct {
	fn   types.Object
	mask string // comma-joined tainted parameter indexes
}

type visitorAliasRun struct {
	pass     *Pass
	memo     map[visitorAliasKey]bool // fn+mask -> returns tainted
	active   map[visitorAliasKey]bool // recursion guard
	reported map[token.Pos]bool       // dedupe across call paths
}

func (va *visitorAliasRun) reportf(pos token.Pos, format string, args ...any) {
	if va.reported[pos] {
		return
	}
	va.reported[pos] = true
	va.pass.Reportf(pos, format, args...)
}

// analyzeBody walks one function body with the given taint seeds and
// returns whether the function's results carry taint. Nested function
// literals are walked as part of the body (their captures resolve to
// the same objects), but their return statements do not count toward
// the outer function's result taint.
func (va *visitorAliasRun) analyzeBody(fnType *ast.FuncType, body *ast.BlockStmt, tainted map[types.Object]bool) bool {
	st := &visitorAliasState{
		run:      va,
		info:     va.pass.Pkg.Info,
		tainted:  tainted,
		funcLits: map[types.Object]*ast.FuncLit{},
		litRets:  map[*ast.ReturnStmt]bool{},
	}
	// Pre-pass: bind local closure variables to their literals and mark
	// return statements belonging to nested literals.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit)
					if !ok {
						continue
					}
					if obj := st.lhsObj(id); obj != nil {
						st.funcLits[obj] = lit
					}
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if _, isLit := m.(*ast.FuncLit); isLit && m != n {
					return false // inner literal handles its own returns
				}
				if ret, isRet := m.(*ast.ReturnStmt); isRet {
					st.litRets[ret] = true
				}
				return true
			})
		}
		return true
	})
	st.walk(body)
	return st.returnsTainted
}

type visitorAliasState struct {
	run      *visitorAliasRun
	info     *types.Info
	tainted  map[types.Object]bool
	funcLits map[types.Object]*ast.FuncLit
	litRets  map[*ast.ReturnStmt]bool

	returnsTainted bool
}

func (st *visitorAliasState) lhsObj(id *ast.Ident) types.Object {
	if obj := st.info.Defs[id]; obj != nil {
		return obj
	}
	return st.info.Uses[id]
}

func (st *visitorAliasState) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.assign(n)
		case *ast.SendStmt:
			if st.taint(n.Value) {
				st.run.reportf(n.Value.Pos(),
					"sends arena-aliased %s on a channel; the Visitor contract requires a copy at the event boundary (Clone() / append([]int(nil), ...))",
					types.ExprString(n.Value))
			}
		case *ast.ReturnStmt:
			if st.litRets[n] {
				return true
			}
			for _, res := range n.Results {
				if st.taint(res) {
					st.returnsTainted = true
				}
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if st.taint(arg) {
					st.run.reportf(arg.Pos(),
						"passes arena-aliased %s to a goroutine, which outlives the visitor event; copy it first (Clone() / append([]int(nil), ...))",
						types.ExprString(arg))
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if st.taint(val) {
					st.run.reportf(val.Pos(),
						"composite literal captures arena-aliased %s without a copy; the Visitor contract requires Clone() / append([]int(nil), ...) at the event boundary",
						types.ExprString(val))
				}
			}
		case *ast.CallExpr:
			st.call(n)
		case *ast.RangeStmt:
			// Ranging over a tainted container taints reference-like
			// element variables (the int elements of xPos are values).
			if st.taint(n.X) {
				if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
					if tv, ok := st.info.Types[id]; ok && refLike(tv.Type) {
						if obj := st.lhsObj(id); obj != nil {
							st.tainted[obj] = true
						}
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != len(vs.Names) {
						continue
					}
					for i, name := range vs.Names {
						if obj := st.info.Defs[name]; obj != nil && st.taint(vs.Values[i]) {
							st.tainted[obj] = true
						}
					}
				}
			}
		}
		return true
	})
}

// assign propagates taint through local variables and reports stores
// into anything that outlives the call (fields, indexed containers,
// dereferences, globals).
func (st *visitorAliasState) assign(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		switch {
		case len(n.Lhs) == len(n.Rhs):
			rhs = n.Rhs[i]
		case len(n.Rhs) == 1:
			rhs = n.Rhs[0] // tuple assignment: taint of the call covers all
		default:
			continue
		}
		rhsTainted := st.taint(rhs)
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			if obj := st.lhsObj(l); obj != nil {
				if pkgLevel(obj) && rhsTainted {
					st.run.reportf(rhs.Pos(),
						"stores arena-aliased %s into package variable %s; copy it at the event boundary (Clone() / append([]int(nil), ...))",
						types.ExprString(rhs), l.Name)
					continue
				}
				st.tainted[obj] = rhsTainted
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			if rhsTainted {
				st.run.reportf(rhs.Pos(),
					"stores arena-aliased %s into %s, retaining it past the visitor event; copy it first (Clone() / append([]int(nil), ...))",
					types.ExprString(rhs), types.ExprString(lhs))
			}
		}
	}
}

// pkgLevel reports whether obj is a package-level variable.
func pkgLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Parent() == v.Pkg().Scope()
}

// call recurses into same-package callees that receive tainted
// arguments so retention inside shared helpers (e.g. topkVisitor.apply
// called from OnGroup) is found too.
func (st *visitorAliasState) call(n *ast.CallExpr) {
	argTaint := st.argTaints(n)
	any := false
	for _, t := range argTaint {
		any = any || t
	}
	if !any {
		return
	}
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
		if obj := st.info.Uses[id]; obj != nil {
			if lit, ok := st.funcLits[obj]; ok {
				st.run.analyzeFuncLit(st, lit, n)
				return
			}
		}
	}
	st.run.analyzeCall(st, n, argTaint)
}

// taint reports whether evaluating e yields an arena-aliased value.
func (st *visitorAliasState) taint(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := st.info.Uses[e]
		return obj != nil && st.tainted[obj]
	case *ast.UnaryExpr:
		return st.taint(e.X)
	case *ast.StarExpr:
		return st.taint(e.X)
	case *ast.SliceExpr:
		return st.taint(e.X)
	case *ast.IndexExpr:
		// xs[i] aliases arena memory only when the element itself is a
		// reference (e.g. []*bitset.Set); an int element is a value copy.
		if tv, ok := st.info.Types[e]; ok && !refLike(tv.Type) {
			return false
		}
		return st.taint(e.X)
	case *ast.CallExpr:
		return st.callResultTaint(e)
	}
	return false
}

// callResultTaint decides whether a call's result aliases the arena.
func (st *visitorAliasState) callResultTaint(call *ast.CallExpr) bool {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := st.info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				return st.appendTaint(call)
			default:
				return false // copy, len, cap, ... yield values or copies
			}
		}
		// Local closure variable: analyze the bound literal with the
		// call's taint pattern.
		if obj := st.info.Uses[id]; obj != nil {
			if lit, ok := st.funcLits[obj]; ok {
				return st.run.analyzeFuncLit(st, lit, call)
			}
		}
	}
	fn := calleeFunc(st.info, call)
	if fn == nil {
		return false // function values, conversions
	}
	if fn.Name() == "Clone" {
		return false // the sanctioned copy
	}
	return st.run.analyzeCall(st, call, st.argTaints(call))
}

func (st *visitorAliasState) argTaints(call *ast.CallExpr) []bool {
	out := make([]bool, len(call.Args))
	for i, arg := range call.Args {
		out[i] = st.taint(arg)
	}
	return out
}

// appendTaint: append(dst, elems...) aliases the arena when dst does
// (same backing array), when a tainted reference-like element is
// appended, or when a tainted slice of references is spread. Spreading
// a tainted []int copies the ints — that is the sanctioned laundering
// idiom append([]int(nil), xPos...).
func (st *visitorAliasState) appendTaint(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	if st.taint(call.Args[0]) {
		return true
	}
	spread := call.Ellipsis.IsValid()
	for i, arg := range call.Args[1:] {
		if !st.taint(arg) {
			continue
		}
		tv, ok := st.info.Types[arg]
		if !ok {
			return true // unknown: stay conservative
		}
		if spread && i == len(call.Args)-2 {
			if sl, ok := tv.Type.Underlying().(*types.Slice); ok && !refLike(sl.Elem()) {
				continue // value elements are copied out
			}
			return true
		}
		if refLike(tv.Type) {
			return true
		}
	}
	return false
}

// analyzeCall analyzes a same-package callee with the given argument
// taint pattern, memoized per (callee, pattern). Cross-package callees
// are assumed to scan, not retain. Returns whether the call's results
// are tainted.
func (va *visitorAliasRun) analyzeCall(st *visitorAliasState, call *ast.CallExpr, argTaint []bool) bool {
	anyTaint := false
	for _, t := range argTaint {
		anyTaint = anyTaint || t
	}
	if !anyTaint {
		return false
	}
	fn := calleeFunc(st.info, call)
	if fn == nil {
		return false
	}
	site, ok := va.pass.Facts.FuncSite(fn)
	if !ok || site.Pkg != va.pass.Pkg || site.Decl.Body == nil {
		return false
	}
	params := flattenParams(site.Pkg.Info, site.Decl.Type)
	tainted := map[types.Object]bool{}
	mask := ""
	for i, t := range argTaint {
		if !t {
			continue
		}
		if i < len(params) && params[i] != nil {
			tainted[params[i]] = true
			mask += fmt.Sprintf("%d,", i)
		}
	}
	if len(tainted) == 0 {
		return false
	}
	key := visitorAliasKey{fn: fn, mask: mask}
	if res, ok := va.memo[key]; ok {
		return res
	}
	if va.active[key] {
		return false // recursion: assume clean, keep termination
	}
	va.active[key] = true
	res := va.analyzeBody(site.Decl.Type, site.Decl.Body, tainted)
	delete(va.active, key)
	va.memo[key] = res
	return res
}

// analyzeFuncLit analyzes a local closure invoked with tainted
// arguments; captured variables keep the caller's taint.
func (va *visitorAliasRun) analyzeFuncLit(st *visitorAliasState, lit *ast.FuncLit, call *ast.CallExpr) bool {
	params := flattenParams(st.info, lit.Type)
	tainted := map[types.Object]bool{}
	for obj, t := range st.tainted {
		if t {
			tainted[obj] = true
		}
	}
	for i, arg := range call.Args {
		if st.taint(arg) && i < len(params) && params[i] != nil {
			tainted[params[i]] = true
		}
	}
	return va.analyzeBody(lit.Type, lit.Body, tainted)
}

// flattenParams expands a parameter list into one object per position
// (grouped parameters like "a, b []int" yield one entry each); unnamed
// parameters yield nil.
func flattenParams(info *types.Info, ft *ast.FuncType) []types.Object {
	var out []types.Object
	if ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}
