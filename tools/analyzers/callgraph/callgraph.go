// Package callgraph builds a cross-package static call graph over the
// packages the export-data loader parsed from source. It is the backbone of
// the interprocedural analyzers (lifetime): a buffer acquired in
// internal/ipstack may be released by a helper in internal/simnet, and only
// a module-wide view can connect the release to the acquisition.
//
// Resolution is deliberately simple and deterministic:
//
//   - direct calls to package functions and methods resolve statically;
//   - calls through a local variable or value that the enclosing function
//     binds to exactly one func literal resolve to that literal;
//   - calls through an interface method resolve by class-hierarchy analysis
//     (CHA): every method of a concrete type in the loaded set whose type
//     implements the interface is a possible callee.
//
// Anything else (func-typed fields, funcs passed across packages, calls into
// packages loaded only as export data) stays unresolved; clients must treat
// unresolved calls conservatively for their own property.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/tools/analyzers/analysis"
)

// Node is one function (or method, or func literal) with a body.
type Node struct {
	// Func is the declared function object; nil for func literals.
	Func *types.Func
	// Lit is the literal for anonymous functions; nil for declarations.
	Lit *ast.FuncLit
	// Decl is the declaration for named functions; nil for literals.
	Decl *ast.FuncDecl
	// Body is the function body (never nil; bodiless declarations get no
	// node).
	Body *ast.BlockStmt
	// Unit is the package the body lives in.
	Unit *analysis.PackageUnit
	// Calls lists the node's call sites in source order.
	Calls []*Call
	// callers is populated by Build for Callers.
	callers []*Node
}

// Name returns a stable human-readable identifier for diagnostics.
func (n *Node) Name() string {
	if n.Func != nil {
		return n.Func.FullName()
	}
	return n.Unit.ImportPath + ".func literal"
}

// Call is one call site inside a node.
type Call struct {
	// Site is the call expression.
	Site *ast.CallExpr
	// Callees lists the possible targets with bodies, sorted by name.
	// Empty means the call is unresolved (export-data-only callee, func
	// value of unknown origin, builtin).
	Callees []*Node
}

// Graph is the module-wide call graph.
type Graph struct {
	// Nodes maps declared functions to their graph nodes.
	Nodes map[*types.Func]*Node
	// Lits maps func literals to their graph nodes.
	Lits map[*ast.FuncLit]*Node
	// bySite maps call expressions to their Call records.
	bySite map[*ast.CallExpr]*Call
}

// NodeOf returns the graph node for fn, or nil when fn has no body in the
// loaded set.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.Nodes[fn] }

// LitOf returns the graph node for a func literal.
func (g *Graph) LitOf(lit *ast.FuncLit) *Node { return g.Lits[lit] }

// CalleesAt returns the resolved targets of a call expression, or nil.
func (g *Graph) CalleesAt(call *ast.CallExpr) []*Node {
	if c := g.bySite[call]; c != nil {
		return c.Callees
	}
	return nil
}

// Callers returns the nodes holding a call site that may target n.
func (g *Graph) Callers(n *Node) []*Node { return n.callers }

// chaMethod is one concrete method candidate for interface-call resolution.
type chaMethod struct {
	recv types.Type
	fn   *types.Func
}

// Build constructs the call graph for the loaded units.
func Build(units []*analysis.PackageUnit) *Graph {
	g := &Graph{
		Nodes:  make(map[*types.Func]*Node),
		Lits:   make(map[*ast.FuncLit]*Node),
		bySite: make(map[*ast.CallExpr]*Call),
	}

	// Pass 1: create a node per function body and index concrete methods
	// for CHA.
	var concrete []chaMethod
	for _, u := range units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body == nil {
						return true
					}
					obj, _ := u.TypesInfo.Defs[n.Name].(*types.Func)
					if obj == nil {
						return true
					}
					g.Nodes[obj] = &Node{Func: obj, Decl: n, Body: n.Body, Unit: u}
				case *ast.FuncLit:
					g.Lits[n] = &Node{Lit: n, Body: n.Body, Unit: u}
				}
				return true
			})
		}
		// Concrete method sets of every named type in the unit.
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				concrete = append(concrete, chaMethod{recv: named, fn: named.Method(i)})
			}
		}
	}

	// Pass 2: resolve call sites inside every body.
	for _, u := range units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				var owner *Node
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body == nil {
						return true
					}
					obj, _ := u.TypesInfo.Defs[n.Name].(*types.Func)
					if obj == nil {
						return true
					}
					owner, body = g.Nodes[obj], n.Body
				case *ast.FuncLit:
					owner, body = g.Lits[n], n.Body
				default:
					return true
				}
				bindings := literalBindings(body, u.TypesInfo)
				ast.Inspect(body, func(m ast.Node) bool {
					// Stay out of nested function bodies: their calls
					// belong to their own nodes.
					if m != body {
						switch m.(type) {
						case *ast.FuncLit:
							return false
						}
					}
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					c := &Call{Site: call}
					c.Callees = resolve(g, u, call, bindings, concrete)
					owner.Calls = append(owner.Calls, c)
					g.bySite[call] = c
					return true
				})
				// Keep descending: nested func literals are processed as
				// their own nodes when the outer walk reaches them.
				return true
			})
		}
	}

	// Pass 3: caller back-edges.
	forEachNode(g, func(n *Node) {
		for _, c := range n.Calls {
			for _, callee := range c.Callees {
				callee.callers = append(callee.callers, n)
			}
		}
	})
	return g
}

// literalBindings maps local objects bound to exactly one func literal in
// body (v := func(){...}; var v = func(){...}) so calls through them
// resolve. An object rebound to anything else is dropped.
func literalBindings(body *ast.BlockStmt, info *types.Info) map[types.Object]*ast.FuncLit {
	out := map[types.Object]*ast.FuncLit{}
	poisoned := map[types.Object]bool{}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
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
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok && out[obj] == nil && !poisoned[obj] {
			out[obj] = lit
			return
		}
		poisoned[obj] = true
		delete(out, obj)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i := range vs.Names {
					bind(vs.Names[i], vs.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// resolve finds the possible targets of one call.
func resolve(g *Graph, u *analysis.PackageUnit, call *ast.CallExpr, bindings map[types.Object]*ast.FuncLit, concrete []chaMethod) []*Node {
	fun := ast.Unparen(call.Fun)

	// Immediate literal: (func(){...})().
	if lit, ok := fun.(*ast.FuncLit); ok {
		if n := g.Lits[lit]; n != nil {
			return []*Node{n}
		}
		return nil
	}

	switch fn := fun.(type) {
	case *ast.Ident:
		obj := u.TypesInfo.Uses[fn]
		if f, ok := obj.(*types.Func); ok {
			if n := g.Nodes[f]; n != nil {
				return []*Node{n}
			}
			return nil
		}
		// A local bound to one literal.
		if lit := bindings[obj]; lit != nil {
			if n := g.Lits[lit]; n != nil {
				return []*Node{n}
			}
		}
		return nil
	case *ast.SelectorExpr:
		sel, ok := u.TypesInfo.Selections[fn]
		if !ok {
			// Qualified package call: pkg.Fn.
			if f, ok := u.TypesInfo.Uses[fn.Sel].(*types.Func); ok {
				if n := g.Nodes[f]; n != nil {
					return []*Node{n}
				}
			}
			return nil
		}
		callee, ok := sel.Obj().(*types.Func)
		if !ok {
			return nil
		}
		recv := sel.Recv()
		if types.IsInterface(recv) {
			return chaTargets(g, recv, callee, concrete)
		}
		// Static dispatch on the concrete type: resolve through the
		// method set so promoted/embedded methods land on the declaring
		// type's func object.
		if n := g.Nodes[callee]; n != nil {
			return []*Node{n}
		}
		return nil
	}
	return nil
}

// chaTargets returns every concrete method implementing an interface call.
func chaTargets(g *Graph, iface types.Type, callee *types.Func, concrete []chaMethod) []*Node {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	seen := map[*Node]bool{}
	for _, m := range concrete {
		if m.fn.Name() != callee.Name() {
			continue
		}
		if !types.Implements(m.recv, it) && !types.Implements(types.NewPointer(m.recv), it) {
			continue
		}
		if n := g.Nodes[m.fn]; n != nil && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// forEachNode visits every node (declared then literal) deterministically.
func forEachNode(g *Graph, visit func(*Node)) {
	var decls []*Node
	for _, n := range g.Nodes { //simlint:deterministic order restored by the position sort below
		decls = append(decls, n)
	}
	var lits []*Node
	for _, n := range g.Lits { //simlint:deterministic order restored by the position sort below
		lits = append(lits, n)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].Body.Pos() < decls[j].Body.Pos() })
	sort.Slice(lits, func(i, j int) bool { return lits[i].Body.Pos() < lits[j].Body.Pos() })
	for _, n := range decls {
		visit(n)
	}
	for _, n := range lits {
		visit(n)
	}
}

// AllNodes returns every node in deterministic (position) order.
func (g *Graph) AllNodes() []*Node {
	var out []*Node
	forEachNode(g, func(n *Node) { out = append(out, n) })
	return out
}

// SCCs returns the strongly connected components of the graph in reverse
// topological order (callees before callers), so bottom-up summary fixpoints
// can run one component at a time. Tarjan's algorithm, iterative.
func (g *Graph) SCCs() [][]*Node {
	nodes := g.AllNodes()
	index := map[*Node]int{}
	low := map[*Node]int{}
	onStack := map[*Node]bool{}
	var stack []*Node
	var sccs [][]*Node
	next := 0

	type frame struct {
		n  *Node
		ci int // index into flattened callee list
	}
	callees := func(n *Node) []*Node {
		var out []*Node
		for _, c := range n.Calls {
			out = append(out, c.Callees...)
		}
		return out
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{n: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			cs := callees(f.n)
			if f.ci < len(cs) {
				c := cs[f.ci]
				f.ci++
				if _, seen := index[c]; !seen {
					index[c], low[c] = next, next
					next++
					stack = append(stack, c)
					onStack[c] = true
					work = append(work, frame{n: c})
				} else if onStack[c] && index[c] < low[f.n] {
					low[f.n] = index[c]
				}
				continue
			}
			// All callees visited: close the frame.
			n := f.n
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].n
				if low[n] < low[p] {
					low[p] = low[n]
				}
			}
			if low[n] == index[n] {
				var scc []*Node
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					scc = append(scc, m)
					if m == n {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
