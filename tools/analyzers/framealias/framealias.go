// Package framealias enforces frame-buffer ownership at the simnet boundary
// (DESIGN.md §9). Port.Send takes ownership of its frame argument: the
// simulator holds the slice until delivery, so the sender must neither keep
// a second reference nor write through the buffer again. The analyzer is
// intra-procedural, the same altitude as maporder: within one function body
// it builds alias sets over []byte locals (assignments, reslices, and
// capacity-sharing appends alias; call results and `append([]byte(nil), …)`
// copies are fresh) and then checks every alias set handed to
// (*simnet.Port).Send for two violations:
//
//   - retention: a member of the set is stored into a struct field, map or
//     slice element, or appended into a collection, anywhere in the body
//     (flow-insensitive — conditional retention of a sent buffer is exactly
//     the aliasing bug this pass exists to catch);
//   - mutation after handoff: at a source position after the Send, a member
//     is written through — index assignment, copy destination, append
//     reuse, an in-place marshal helper (PutHeader, ipv4.Forward), or a
//     release to the frame arena (Put), which lets the next Get rewrite it.
//
// The escape hatch is `//simlint:frameown <why>` on the offending line (or
// the line above); the justification text is mandatory.
package framealias

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the frame-ownership check.
var Analyzer = &analysis.Analyzer{
	Name: "framealias",
	Doc:  "flags frame buffers retained or mutated after being handed to simnet delivery",
	Run:  run,
}

// mutators write through their first argument: the in-place marshal helpers,
// and the frame arena's Put, which hands the bytes to the next Get. Calling
// one on a handed-off buffer is a mutation.
var mutators = map[string]bool{"PutHeader": true, "Forward": true, "Put": true}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFunc(pass, fn)
			}
		}
	}
	return nil, nil
}

// aliases is a union-find over the []byte objects of one function body.
type aliases struct{ parent map[types.Object]types.Object }

func (a *aliases) find(o types.Object) types.Object {
	p, ok := a.parent[o]
	if !ok || p == o {
		return o
	}
	r := a.find(p)
	a.parent[o] = r
	return r
}

func (a *aliases) union(x, y types.Object) {
	rx, ry := a.find(x), a.find(y)
	if rx != ry {
		a.parent[rx] = ry
	}
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	al := &aliases{parent: map[types.Object]types.Object{}}

	// Pass 1: build alias sets from assignments and declarations.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				lo := identObj(pass, lhs)
				ro := aliasBase(pass, n.Rhs[i])
				if lo != nil && ro != nil && isByteSlice(lo.Type()) {
					al.union(lo, ro)
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i >= len(n.Values) {
					break
				}
				lo := identObj(pass, name)
				ro := aliasBase(pass, n.Values[i])
				if lo != nil && ro != nil && isByteSlice(lo.Type()) {
					al.union(lo, ro)
				}
			}
		}
		return true
	})

	// Pass 2: find handoffs — the earliest Send position per alias set.
	handedOff := map[types.Object]token.Pos{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPortSend(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			base := aliasBase(pass, arg)
			if base == nil {
				continue
			}
			root := al.find(base)
			if prev, ok := handedOff[root]; !ok || call.Pos() < prev {
				handedOff[root] = call.Pos()
			}
		}
		return true
	})
	if len(handedOff) == 0 {
		return
	}
	sent := func(e ast.Expr) (types.Object, token.Pos, bool) {
		base := aliasBase(pass, e)
		if base == nil {
			return nil, token.NoPos, false
		}
		pos, ok := handedOff[al.find(base)]
		return base, pos, ok
	}

	// Pass 3: violations.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				// Retention: member stored into a field, map, or slice
				// element (flow-insensitive).
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					if obj, _, ok := sent(n.Rhs[i]); ok {
						report(pass, n.Pos(), "frame %s is handed to simnet but retained in %s",
							obj.Name(), types.ExprString(lhs))
					}
				}
				// Mutation after handoff: index assignment through a member.
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if obj, sendPos, ok := sent(ix.X); ok && n.Pos() > sendPos {
						report(pass, n.Pos(), "frame %s is mutated after being handed to simnet", obj.Name())
					}
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n, al, handedOff, sent)
		}
		return true
	})
}

// checkCall flags retention-by-append and mutation-by-call on handed-off
// buffers.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, al *aliases, handedOff map[types.Object]token.Pos, sent func(ast.Expr) (types.Object, token.Pos, bool)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch pass.TypesInfo.Uses[fun] {
		case types.Universe.Lookup("append"):
			if len(call.Args) == 0 {
				return
			}
			// append(container, member): retention unless the container is
			// the member's own set (that case is a post-handoff reuse,
			// checked below).
			containerBase := aliasBase(pass, call.Args[0])
			for _, arg := range call.Args[1:] {
				obj, _, ok := sent(arg)
				if !ok {
					continue
				}
				if containerBase != nil && al.find(containerBase) == al.find(obj) {
					continue
				}
				report(pass, call.Pos(), "frame %s is handed to simnet but appended into %s",
					obj.Name(), types.ExprString(call.Args[0]))
			}
			if obj, sendPos, ok := sent(call.Args[0]); ok && call.Pos() > sendPos {
				report(pass, call.Pos(), "frame %s is reused by append after being handed to simnet", obj.Name())
			}
		case types.Universe.Lookup("copy"):
			if len(call.Args) == 2 {
				if obj, sendPos, ok := sent(call.Args[0]); ok && call.Pos() > sendPos {
					report(pass, call.Pos(), "frame %s is overwritten by copy after being handed to simnet", obj.Name())
				}
			}
		}
	case *ast.SelectorExpr:
		if mutators[fun.Sel.Name] && len(call.Args) > 0 {
			if obj, sendPos, ok := sent(call.Args[0]); ok && call.Pos() > sendPos {
				report(pass, call.Pos(), "frame %s is rewritten by %s after being handed to simnet",
					obj.Name(), fun.Sel.Name)
			}
		}
	}
}

// identObj resolves a plain identifier expression to its object.
func identObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// aliasBase resolves an expression to the tracked []byte variable whose
// backing array it may share, or nil for fresh or untracked storage.
func aliasBase(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(pass, e)
		if obj != nil && isByteSlice(obj.Type()) {
			if _, isVar := obj.(*types.Var); isVar {
				return obj
			}
		}
	case *ast.SliceExpr:
		return aliasBase(pass, e.X)
	case *ast.CallExpr:
		// append may return the first argument's backing array; every other
		// call result is fresh. append([]byte(nil), …) is the copy idiom.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if pass.TypesInfo.Uses[id] == types.Universe.Lookup("append") && len(e.Args) > 0 {
				return aliasBase(pass, e.Args[0])
			}
		}
	}
	return nil
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// isPortSend reports whether call invokes (*simnet.Port).Send.
func isPortSend(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Name() != "Send" {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Port" || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(named.Obj().Pkg().Path(), "internal/simnet")
}

// report emits one diagnostic unless the site carries a justified
// //simlint:frameown marker.
func report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	just, marked := pass.MarkedAt(pos, analysis.FrameOwnComment)
	if marked {
		if just == "" {
			pass.Reportf(pos, "%s requires a written justification", analysis.FrameOwnComment)
		}
		return
	}
	pass.Reportf(pos, format+"; hand off a copy or justify with "+analysis.FrameOwnComment+" <why>", args...)
}
