// Package dataflow implements an interprocedural ownership analysis. Given
// a client predicate marking anchor types (say, the simulator-resident
// simnet types), it computes which values in the module may alias memory
// reachable from an anchored value — tracking flow from the allocation site
// through assignments, struct fields, calls and returns, and channel
// handoffs.
//
// The analysis is deliberately coarse so it stays dependable and fast on a
// stdlib-only toolchain:
//
//   - flow-insensitive: one boolean per variable object, monotone under a
//     global fixpoint, no path or order sensitivity;
//   - context-insensitive: call edges from the callgraph package propagate
//     argument taint into parameter objects and return taint back to call
//     sites, merged over all callers;
//   - field-insensitive on writes: storing an aliased value into x.f taints
//     x, because a later read of any field of x may surface the alias;
//   - copy-aware: selecting or dereferencing a non-pointerish value out of
//     aliased memory produces an owned copy and drops the taint.
//
// Unresolved calls (no body in the loaded set) are handled conservatively:
// the result is treated as aliasing when the receiver or any argument is
// aliased/anchored and the result type can carry a reference.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/analyzers/callgraph"
)

// Aliasing is the computed module-wide alias relation.
type Aliasing struct {
	graph    *callgraph.Graph
	anchored func(types.Type) bool
	// vars marks variable objects whose value may alias anchored memory.
	vars map[types.Object]bool
	// rets marks functions that may return such a value.
	rets map[*callgraph.Node]bool
	// chans marks channel-rooted objects through which such a value was
	// sent; receives from them are aliased.
	chans map[types.Object]bool
}

// NewAliasing runs the fixpoint over the graph's function bodies.
func NewAliasing(g *callgraph.Graph, anchored func(types.Type) bool) *Aliasing {
	a := &Aliasing{
		graph:    g,
		anchored: anchored,
		vars:     map[types.Object]bool{},
		rets:     map[*callgraph.Node]bool{},
		chans:    map[types.Object]bool{},
	}
	for a.sweep() {
	}
	return a
}

// VarAliases reports whether the variable object's value may alias anchored
// memory.
func (a *Aliasing) VarAliases(obj types.Object) bool { return a.vars[obj] }

// ExprAliases reports whether the expression's value may alias anchored
// memory, under the unit's type information.
func (a *Aliasing) ExprAliases(info *types.Info, e ast.Expr) bool {
	return a.aliasedExpr(info, e)
}

// Pointerish reports whether a value of type t can carry a reference into
// someone else's memory: pointers, slices, maps, and channels. Interfaces
// and funcs are excluded — the anchor predicate classifies those by type —
// and basics, strings, structs, and arrays are owned copies.
func Pointerish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// sweep walks every function body once, propagating taint; it reports
// whether anything changed.
func (a *Aliasing) sweep() bool {
	changed := false
	taintVar := func(obj types.Object) {
		if obj != nil && !a.vars[obj] {
			a.vars[obj] = true
			changed = true
		}
	}
	for _, n := range a.graph.AllNodes() {
		info := n.Unit.TypesInfo
		namedResults := namedResultObjs(n, info)

		ast.Inspect(n.Body, func(m ast.Node) bool {
			// Nested literals are their own nodes.
			if lit, ok := m.(*ast.FuncLit); ok && lit.Body != n.Body {
				return false
			}
			switch m := m.(type) {
			case *ast.AssignStmt:
				a.bindAssign(info, m, taintVar)
			case *ast.GenDecl:
				if m.Tok != token.VAR {
					return true
				}
				for _, spec := range m.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					a.bindPairs(info, identExprs(vs.Names), vs.Values, taintVar)
				}
			case *ast.RangeStmt:
				if a.aliasedExpr(info, m.X) {
					for _, e := range []ast.Expr{m.Key, m.Value} {
						if e == nil {
							continue
						}
						if t := info.TypeOf(e); Pointerish(t) || a.anchored(t) {
							taintVar(rootObj(info, e))
						}
					}
				}
			case *ast.SendStmt:
				if a.aliasedExpr(info, m.Value) {
					if obj := rootObj(info, m.Chan); obj != nil && !a.chans[obj] {
						a.chans[obj] = true
						changed = true
					}
				}
			case *ast.ReturnStmt:
				aliased := false
				if len(m.Results) == 0 {
					for _, obj := range namedResults {
						if a.vars[obj] {
							aliased = true
						}
					}
				}
				for _, r := range m.Results {
					if a.aliasedExpr(info, r) {
						aliased = true
					}
				}
				if aliased && !a.rets[n] {
					a.rets[n] = true
					changed = true
				}
			case *ast.CallExpr:
				a.bindCallParams(info, m, taintVar)
			}
			return true
		})
	}
	return changed
}

// bindAssign propagates one assignment or short declaration.
func (a *Aliasing) bindAssign(info *types.Info, st *ast.AssignStmt, taintVar func(types.Object)) {
	a.bindPairs(info, st.Lhs, st.Rhs, taintVar)
}

// bindPairs handles lhs... = rhs..., including the 1-call multi-value form.
func (a *Aliasing) bindPairs(info *types.Info, lhs, rhs []ast.Expr, taintVar func(types.Object)) {
	if len(rhs) == 1 && len(lhs) > 1 {
		// x, y := f() — taint every reference-capable lhs when the call
		// may return aliased memory.
		if a.aliasedExpr(info, rhs[0]) {
			for _, l := range lhs {
				if t := info.TypeOf(l); Pointerish(t) || a.anchored(t) {
					taintVar(rootObj(info, l))
				}
			}
		}
		return
	}
	for i := range lhs {
		if i >= len(rhs) {
			break
		}
		if a.aliasedExpr(info, rhs[i]) {
			taintVar(rootObj(info, lhs[i]))
		}
	}
}

// bindCallParams propagates aliased arguments into the parameter objects of
// every resolved callee (context-insensitive: merged over all call sites).
func (a *Aliasing) bindCallParams(info *types.Info, call *ast.CallExpr, taintVar func(types.Object)) {
	callees := a.graph.CalleesAt(call)
	if len(callees) == 0 {
		return
	}
	var aliasedArgs []bool
	for _, arg := range call.Args {
		aliasedArgs = append(aliasedArgs, a.aliasedExpr(info, arg))
	}
	recvAliased := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := info.Selections[sel]; isSel {
			recvAliased = a.aliasedExpr(info, sel.X)
		}
	}
	for _, callee := range callees {
		params, recv := calleeParamObjs(callee)
		if recvAliased {
			taintVar(recv)
		}
		for i, aliased := range aliasedArgs {
			if !aliased {
				continue
			}
			if i < len(params) {
				taintVar(params[i])
			} else if len(params) > 0 {
				taintVar(params[len(params)-1]) // variadic tail
			}
		}
	}
}

// aliasedExpr reports whether e's value may alias anchored memory.
func (a *Aliasing) aliasedExpr(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return false
		}
		return a.vars[obj] || a.anchored(obj.Type())
	case *ast.SelectorExpr:
		if _, isSel := info.Selections[e]; !isSel {
			// Package-qualified reference pkg.V.
			if obj := info.Uses[e.Sel]; obj != nil {
				return a.vars[obj] || a.anchored(obj.Type())
			}
			return false
		}
		if t := info.TypeOf(e); a.anchored(t) {
			return true
		} else if !Pointerish(t) {
			return false // owned copy of a scalar/struct field
		}
		return a.aliasedExpr(info, e.X)
	case *ast.IndexExpr:
		if t := info.TypeOf(e); a.anchored(t) {
			return true
		} else if !Pointerish(t) {
			return false
		}
		return a.aliasedExpr(info, e.X)
	case *ast.SliceExpr:
		return a.aliasedExpr(info, e.X)
	case *ast.StarExpr:
		if t := info.TypeOf(e); a.anchored(t) {
			return true
		} else if !Pointerish(t) {
			return false
		}
		return a.aliasedExpr(info, e.X)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			return a.aliasedExpr(info, e.X)
		case token.ARROW:
			// Channel receive: aliased when something aliased was sent on
			// the channel object and the element can carry a reference.
			t := info.TypeOf(e)
			if !Pointerish(t) && !a.anchored(t) {
				return false
			}
			return a.chans[rootObj(info, e.X)]
		}
		return false
	case *ast.CallExpr:
		return a.aliasedCall(info, e)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if a.aliasedExpr(info, el) {
				return true
			}
		}
		return false
	case *ast.TypeAssertExpr:
		if !Pointerish(info.TypeOf(e)) && !a.anchored(info.TypeOf(e)) {
			return false
		}
		return a.aliasedExpr(info, e.X)
	}
	return false
}

// aliasedCall evaluates a call (or conversion) expression.
func (a *Aliasing) aliasedCall(info *types.Info, call *ast.CallExpr) bool {
	// Type conversion: T(x) keeps x's aliasing when T can carry it.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && (Pointerish(info.TypeOf(call)) || a.anchored(info.TypeOf(call))) {
			return a.aliasedExpr(info, call.Args[0])
		}
		return false
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				// append extends its first argument's backing array, so
				// that aliasing persists; appended elements are copied, so
				// they matter only when the element type itself can carry
				// a reference (append([]int(nil), tainted...) is the
				// owned-copy idiom and stays clean).
				if len(call.Args) == 0 {
					return false
				}
				if a.aliasedExpr(info, call.Args[0]) {
					return true
				}
				if st, ok := info.TypeOf(call.Args[0]).Underlying().(*types.Slice); ok {
					if !Pointerish(st.Elem()) && !a.anchored(st.Elem()) {
						return false
					}
				}
				for _, arg := range call.Args[1:] {
					if a.aliasedExpr(info, arg) {
						return true
					}
				}
			}
			return false
		}
	}
	// Resolved callees: the summary of any target applies.
	if callees := a.graph.CalleesAt(call); len(callees) > 0 {
		for _, c := range callees {
			if a.rets[c] {
				return true
			}
		}
		return false
	}
	// Unresolved call (export-data-only, func value, interface with no CHA
	// target): conservative when anchored/aliased memory goes in and a
	// reference-capable value comes out.
	t := info.TypeOf(call)
	if !Pointerish(t) && !a.anchored(t) {
		return false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := info.Selections[sel]; isSel && a.aliasedExpr(info, sel.X) {
			return true
		}
	}
	for _, arg := range call.Args {
		if a.aliasedExpr(info, arg) {
			return true
		}
	}
	return false
}

// rootObj returns the variable object at the root of an lvalue chain
// (x, x.f, x[i], *x, (x)), or nil.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			if _, isSel := info.Selections[x]; !isSel {
				return info.Uses[x.Sel] // pkg.V
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// identExprs widens a name list to an expression list.
func identExprs(names []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(names))
	for i, n := range names {
		out[i] = n
	}
	return out
}

// calleeParamObjs returns the parameter objects (and receiver, for methods)
// of a callee node, resolved through its declaration syntax.
func calleeParamObjs(n *callgraph.Node) (params []types.Object, recv types.Object) {
	info := n.Unit.TypesInfo
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
		if n.Decl.Recv != nil && len(n.Decl.Recv.List) == 1 && len(n.Decl.Recv.List[0].Names) == 1 {
			recv = info.Defs[n.Decl.Recv.List[0].Names[0]]
		}
	} else if n.Lit != nil {
		ft = n.Lit.Type
	}
	if ft == nil || ft.Params == nil {
		return nil, recv
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			params = append(params, info.Defs[name])
		}
	}
	return params, recv
}

// namedResultObjs returns the function's named result objects, if any.
func namedResultObjs(n *callgraph.Node, info *types.Info) []types.Object {
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else if n.Lit != nil {
		ft = n.Lit.Type
	}
	if ft == nil || ft.Results == nil {
		return nil
	}
	var out []types.Object
	for _, field := range ft.Results.List {
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}
