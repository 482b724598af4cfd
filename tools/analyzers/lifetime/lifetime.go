// Package lifetime is a module-wide interprocedural analyzer for pooled
// resource lifetimes. The simulator recycles two kinds of records on its
// hottest paths — event records through the Sim freelist and frame buffers
// through internal/simnet/framepool — and recycling is only sound while
// every buffer has exactly one owner: acquired once, used while held, then
// either released exactly once, stored somewhere that takes ownership, or
// returned to the caller. This analyzer enforces that discipline statically,
// reporting four defect classes:
//
//	(a) use-after-release: a variable read after it was released on some path;
//	(b) double-release:    a variable released twice on some path;
//	(c) leak-on-path:      a locally acquired resource that reaches a return
//	                       still held (neither released, escaped, nor returned);
//	(d) escape-into-event-capture: a held buffer captured by a closure handed
//	                       to At/After/Schedule, which may fire after the
//	                       buffer has been recycled.
//
// Pooled types are declared in source, not in the analyzer: a type whose doc
// comment carries
//
//	//simlint:pool acquire=Get release=Put
//
// registers its acquire/release method pair. Ownership transfer is tracked
// interprocedurally through per-function summaries: a parameter is consumed
// when every path through the callee releases it, escaped when any path
// stores it, and a result is fresh when every return hands back a held
// acquisition — so helpers like newIPFrame (fresh) and routeOut (escaping)
// compose without annotations.
//
// The tracking is deliberately conservative: aliasing a resource, passing it
// to an unresolved callee, or storing it anywhere moves it to an "escaped"
// state that suppresses all further reporting for that variable. The
// analyzer therefore never reports on code it cannot prove wrong; the
// runtime generation checks under -tags invariants (framepool's debug state)
// cover the escaped remainder. Sites the analyzer is wrong about carry a
// //simlint:lifetime marker with a written justification.
package lifetime

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/tools/analyzers/analysis"
	"repro/tools/analyzers/callgraph"
)

// Analyzer is the pooled-resource lifetime check.
var Analyzer = &analysis.ModuleAnalyzer{
	Name: "lifetime",
	Doc:  "reports use-after-release, double-release, leaks and event-capture escapes of pooled resources",
	Run:  run,
}

// maxFixpointRounds bounds the interprocedural summary iteration. Summaries
// are a deterministic function of callee summaries, so real code converges in
// two or three rounds; the cap guards against oscillation through recursion.
const maxFixpointRounds = 20

// schedNames are the deferred-execution scheduling calls of class (d): a
// closure handed to one of these runs at a later virtual time, after the
// current owner may have released its buffers.
var schedNames = map[string]bool{"At": true, "After": true, "Schedule": true}

func run(pass *analysis.ModulePass) (any, error) {
	c := &checker{
		pass:     pass,
		pools:    collectPools(pass),
		sums:     map[*callgraph.Node]*summary{},
		reported: map[string]bool{},
	}
	if len(c.pools) == 0 {
		return nil, nil // nothing registers a pool: no resources to track
	}
	c.graph = callgraph.Build(pass.Units)

	// Phase 1: iterate ownership summaries to a fixpoint.
	for round := 0; round < maxFixpointRounds; round++ {
		changed := false
		for _, n := range c.graph.AllNodes() {
			if c.isPoolMethod(n) {
				continue
			}
			s := c.analyze(n, false)
			if !c.sums[n].equal(s) {
				c.sums[n] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Phase 2: report with the final summaries.
	for _, n := range c.graph.AllNodes() {
		if c.isPoolMethod(n) {
			continue
		}
		c.analyze(n, true)
	}
	return nil, nil
}

// ---------------------------------------------------------------- registry

// poolSpec is one registered pooled type.
type poolSpec struct {
	name    string // short type name, for messages
	acquire string
	release string
}

// collectPools scans every unit for types whose doc comment carries the
// //simlint:pool marker and parses the acquire/release method names. The
// registry is keyed by "pkgpath.TypeName" so a pool declared in one package
// is recognized at call sites type-checked in another.
func collectPools(pass *analysis.ModulePass) map[string]poolSpec {
	pools := map[string]poolSpec{}
	for _, u := range pass.Units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					just, ok := poolMarker(pass.Fset, f, gd, ts)
					if !ok {
						continue
					}
					acq, rel, ok := parsePoolSpec(just)
					if !ok {
						continue
					}
					key := u.Pkg.Path() + "." + ts.Name.Name
					pools[key] = poolSpec{name: ts.Name.Name, acquire: acq, release: rel}
				}
			}
		}
	}
	return pools
}

// poolMarker finds the //simlint:pool line in the type's doc comment (on the
// GenDecl or the TypeSpec) or attached directly above the declaration.
func poolMarker(fset *token.FileSet, f *ast.File, gd *ast.GenDecl, ts *ast.TypeSpec) (string, bool) {
	for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc} {
		if doc == nil {
			continue
		}
		for _, line := range doc.List {
			if rest, ok := strings.CutPrefix(line.Text, analysis.PoolComment+" "); ok {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return analysis.MarkerAt(fset, f, gd.Pos(), analysis.PoolComment)
}

// parsePoolSpec extracts "acquire=Get release=Put" from the marker text.
func parsePoolSpec(text string) (acquire, release string, ok bool) {
	for _, field := range strings.Fields(text) {
		if v, found := strings.CutPrefix(field, "acquire="); found {
			acquire = v
		}
		if v, found := strings.CutPrefix(field, "release="); found {
			release = v
		}
	}
	return acquire, release, acquire != "" && release != ""
}

// ---------------------------------------------------------------- states

// state is a variable's position in the ownership lattice.
type state uint8

const (
	stNone     state = iota // untracked
	stHeld                  // owns a live pooled resource
	stMaybe                 // held on some path, released/absent on others
	stReleased              // returned to the pool; any further use is a bug
	stEscaped               // ownership moved somewhere we cannot track; stop reporting
)

// mergeState joins two branch outcomes. Escape absorbs everything (give up);
// any other disagreement is the interesting "on some path" middle state.
func mergeState(a, b state) state {
	if a == b {
		return a
	}
	if a == stEscaped || b == stEscaped {
		return stEscaped
	}
	return stMaybe
}

// varInfo is everything tracked about one variable.
type varInfo struct {
	st     state
	local  bool // acquired inside this function: leak checking applies
	pool   string
	acqPos token.Pos
	relPos token.Pos
}

type env map[*types.Var]varInfo

func (e env) clone() env {
	out := make(env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// merge joins two branch environments key-by-key; a key absent on one side
// merges as untracked.
func mergeEnvs(a, b env) env {
	out := make(env, len(a))
	for k, av := range a {
		bv := b[k]
		out[k] = mergeInfo(av, bv)
	}
	for k, bv := range b {
		if _, seen := a[k]; !seen {
			out[k] = mergeInfo(varInfo{}, bv)
		}
	}
	return out
}

func mergeInfo(a, b varInfo) varInfo {
	out := a
	out.st = mergeState(a.st, b.st)
	out.local = a.local || b.local
	if out.pool == "" {
		out.pool = b.pool
	}
	if out.acqPos == token.NoPos {
		out.acqPos = b.acqPos
	}
	if out.relPos == token.NoPos {
		out.relPos = b.relPos
	}
	return out
}

// ---------------------------------------------------------------- summaries

// fate summarizes what a callee does with one parameter.
type fate uint8

const (
	fateBorrowed fate = iota // only read: the caller keeps ownership
	fateConsumed             // released on every path: the caller's variable dies
	fateEscaped              // stored or partially released: the caller gives up tracking
)

// summary is one function's interprocedural contract.
type summary struct {
	params []fate
	fresh  []bool // per result index: every return hands back a held acquisition
}

func (s *summary) equal(o *summary) bool {
	if s == nil || o == nil {
		return s == o
	}
	if len(s.params) != len(o.params) || len(s.fresh) != len(o.fresh) {
		return false
	}
	for i := range s.params {
		if s.params[i] != o.params[i] {
			return false
		}
	}
	for i := range s.fresh {
		if s.fresh[i] != o.fresh[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- checker

type checker struct {
	pass     *analysis.ModulePass
	graph    *callgraph.Graph
	pools    map[string]poolSpec
	sums     map[*callgraph.Node]*summary
	reported map[string]bool
}

const (
	roleNone = iota
	roleAcquire
	roleRelease
)

// methodRole classifies a callee as a registered acquire or release method.
func (c *checker) methodRole(fn *types.Func) (poolSpec, int) {
	if fn == nil {
		return poolSpec{}, roleNone
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return poolSpec{}, roleNone
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return poolSpec{}, roleNone
	}
	spec, ok := c.pools[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
	if !ok {
		return poolSpec{}, roleNone
	}
	switch fn.Name() {
	case spec.acquire:
		return spec, roleAcquire
	case spec.release:
		return spec, roleRelease
	}
	return poolSpec{}, roleNone
}

// isPoolMethod reports whether the node IS a registered acquire or release
// method: their bodies implement the pool discipline rather than follow it.
func (c *checker) isPoolMethod(n *callgraph.Node) bool {
	_, role := c.methodRole(n.Func)
	return role != roleNone
}

// calleeFunc statically resolves the called function object for pool-role
// classification (direct and method calls only).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// analyze walks one function body and returns its summary; with report set
// it also emits diagnostics.
func (c *checker) analyze(n *callgraph.Node, report bool) *summary {
	w := &walker{c: c, node: n, env: env{}, doReport: report}
	w.walkBody(n.Body.List)
	if !w.terminated {
		// Falling off the end is an exit too.
		w.leakCheck(n.Body.End(), nil)
		w.recordExit()
	}

	sum := &summary{}
	for _, p := range paramVars(n) {
		f := fateBorrowed
		if p != nil {
			switch w.exit[p].st {
			case stReleased:
				f = fateConsumed
			case stEscaped, stMaybe:
				f = fateEscaped
			}
		}
		sum.params = append(sum.params, f)
	}
	if w.returns > 0 {
		sum.fresh = w.freshVotes
	}
	return sum
}

// paramVars returns the function's parameter objects in declaration order
// (nil entries for unresolvable or blank parameters).
func paramVars(n *callgraph.Node) []*types.Var {
	var ft *ast.FuncType
	switch {
	case n.Decl != nil:
		ft = n.Decl.Type
	case n.Lit != nil:
		ft = n.Lit.Type
	}
	if ft == nil || ft.Params == nil {
		return nil
	}
	var out []*types.Var
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter
			continue
		}
		for _, name := range field.Names {
			v, _ := n.Unit.TypesInfo.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

func (c *checker) shortPos(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// report emits one diagnostic unless the site carries a justified
// //simlint:lifetime marker. A bare marker anchors its own diagnostic, like
// every other justification marker in the suite.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	unit := c.pass.UnitFor(pos)
	if unit == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	if just, ok := unit.MarkedAt(c.pass.Fset, pos, analysis.LifetimeComment); ok {
		// A trailing comment is not a justification (matches justify's rule).
		if just == "" || strings.HasPrefix(just, "//") {
			c.pass.Reportf(unit, pos, "%s (bare //simlint:lifetime marker needs a justification)", msg)
		}
		return
	}
	c.pass.Reportf(unit, pos, "%s", msg)
}

// ---------------------------------------------------------------- walker

type walker struct {
	c        *checker
	node     *callgraph.Node
	env      env
	doReport bool

	// exit merges the environment at every function exit, for param fates.
	exit    env
	exited  bool
	returns int
	// freshVotes[i] stays true while every return's i-th result is a fresh
	// acquisition.
	freshVotes []bool

	terminated bool
}

func (w *walker) info() *types.Info { return w.node.Unit.TypesInfo }

func (w *walker) objOf(id *ast.Ident) *types.Var {
	info := w.info()
	if o, ok := info.Uses[id].(*types.Var); ok {
		return o
	}
	o, _ := info.Defs[id].(*types.Var)
	return o
}

func (w *walker) recordExit() {
	if !w.exited {
		w.exit = w.env.clone()
		w.exited = true
		return
	}
	w.exit = mergeEnvs(w.exit, w.env)
}

// leakCheck reports locally acquired resources still (maybe) held at an
// exit, excluding the ones being returned.
func (w *walker) leakCheck(pos token.Pos, returned map[*types.Var]bool) {
	if !w.doReport {
		return
	}
	for v, vi := range w.env {
		if !vi.local || returned[v] {
			continue
		}
		switch vi.st {
		case stHeld:
			w.c.report(vi.acqPos, "%s acquired from pool %s is never released, stored, or returned (leak at %s)",
				v.Name(), vi.pool, w.c.shortPos(pos))
		case stMaybe:
			w.c.report(vi.acqPos, "%s acquired from pool %s leaks on some path (reaches %s still held)",
				v.Name(), vi.pool, w.c.shortPos(pos))
		}
	}
}

// ---------------------------------------------------------------- statements

func (w *walker) walkBody(list []ast.Stmt) {
	for _, s := range list {
		if w.terminated {
			return
		}
		w.walkStmt(s)
	}
}

// inBranch runs f against a clone of the current environment and returns the
// resulting environment plus whether the branch terminated.
func (w *walker) inBranch(f func()) (env, bool) {
	savedEnv, savedT := w.env, w.terminated
	w.env, w.terminated = savedEnv.clone(), false
	f()
	resEnv, resT := w.env, w.terminated
	w.env, w.terminated = savedEnv, savedT
	return resEnv, resT
}

// joinBranches merges branch outcomes back into the walker. Terminated
// branches contribute nothing (their exits were already recorded); when every
// branch terminated and the set was exhaustive, the walker terminates too.
func (w *walker) joinBranches(results []env, terms []bool, exhaustive bool) {
	var live []env
	for i, e := range results {
		if !terms[i] {
			live = append(live, e)
		}
	}
	if !exhaustive {
		// Some execution may skip every branch: the pre-branch env survives.
		live = append(live, w.env)
	}
	if len(live) == 0 {
		w.terminated = true
		return
	}
	merged := live[0]
	for _, e := range live[1:] {
		merged = mergeEnvs(merged, e)
	}
	w.env = merged
}

func (w *walker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkBody(s.List)
	case *ast.ExprStmt:
		w.use(s.X, false)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					w.use(val, false)
				}
			}
		}
	case *ast.ReturnStmt:
		w.ret(s)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.use(s.Cond, false)
		thenEnv, thenT := w.inBranch(func() { w.walkStmt(s.Body) })
		elseEnv, elseT := w.env, false
		if s.Else != nil {
			elseEnv, elseT = w.inBranch(func() { w.walkStmt(s.Else) })
		}
		w.joinBranches([]env{thenEnv, elseEnv}, []bool{thenT, elseT}, true)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.use(s.Cond, false)
		}
		bodyEnv, bodyT := w.inBranch(func() {
			w.walkStmt(s.Body)
			if !w.terminated && s.Post != nil {
				w.walkStmt(s.Post)
			}
		})
		// Zero or more iterations: merge the skip path with one pass.
		w.joinBranches([]env{bodyEnv}, []bool{bodyT}, false)
	case *ast.RangeStmt:
		w.use(s.X, false)
		bodyEnv, bodyT := w.inBranch(func() { w.walkStmt(s.Body) })
		w.joinBranches([]env{bodyEnv}, []bool{bodyT}, false)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.use(s.Tag, false)
		}
		w.walkClauses(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.walkStmt(s.Assign)
		w.walkClauses(s.Body)
	case *ast.SelectStmt:
		w.walkClauses(s.Body)
	case *ast.DeferStmt:
		// A deferred release runs at the last possible moment: treat the
		// variable as escaped so neither the leak check nor later-use
		// checks misfire on the window in between.
		if id := w.releaseArgIdent(s.Call); id != nil {
			if v := w.objOf(id); v != nil {
				vi := w.env[v]
				vi.st = stEscaped
				w.env[v] = vi
				return
			}
		}
		w.use(s.Call, false)
	case *ast.GoStmt:
		w.use(s.Call, false)
	case *ast.SendStmt:
		w.use(s.Chan, false)
		w.use(s.Value, true)
	case *ast.IncDecStmt:
		w.use(s.X, false)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto: stop walking this branch. Conservative for
		// loops (a second iteration is not re-simulated), fine in practice.
		w.terminated = true
	}
}

// walkClauses handles the case bodies of switch/type-switch/select.
func (w *walker) walkClauses(body *ast.BlockStmt) {
	var results []env
	var terms []bool
	exhaustive := false
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.use(e, false)
			}
			if cl.List == nil {
				exhaustive = true // default clause
			}
			stmts = cl.Body
		case *ast.CommClause:
			stmts = cl.Body
			if cl.Comm != nil {
				comm := cl.Comm
				e, t := w.inBranch(func() {
					w.walkStmt(comm)
					w.walkBody(stmts)
				})
				results, terms = append(results, e), append(terms, t)
				continue
			}
			exhaustive = true
		}
		list := stmts
		e, t := w.inBranch(func() { w.walkBody(list) })
		results, terms = append(results, e), append(terms, t)
	}
	w.joinBranches(results, terms, exhaustive)
}

// releaseArgIdent returns the released identifier when call is a registered
// release taking a simple variable, else nil.
func (w *walker) releaseArgIdent(call *ast.CallExpr) *ast.Ident {
	_, role := w.c.methodRole(calleeFunc(w.info(), call))
	if role != roleRelease || len(call.Args) != 1 {
		return nil
	}
	id, _ := ast.Unparen(call.Args[0]).(*ast.Ident)
	return id
}

// ---------------------------------------------------------------- assignment

func (w *walker) assign(s *ast.AssignStmt) {
	// Multi-value call: x, y := f().
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		if !ok {
			for _, r := range s.Rhs {
				w.use(r, false)
			}
			return
		}
		fresh := w.freshResults(call)
		w.use(call, false)
		for i, lh := range s.Lhs {
			id, ok := ast.Unparen(lh).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			v := w.objOf(id)
			if v == nil {
				continue
			}
			if i < len(fresh) && fresh[i] {
				w.env[v] = w.heldInfo(call)
			} else {
				delete(w.env, v)
			}
		}
		return
	}

	for i := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		w.assignPair(s.Lhs[i], s.Rhs[i])
	}
}

// heldInfo builds the varInfo for a fresh acquisition at call.
func (w *walker) heldInfo(call *ast.CallExpr) varInfo {
	name := "pool"
	if spec, role := w.c.methodRole(calleeFunc(w.info(), call)); role == roleAcquire {
		name = spec.name
	}
	return varInfo{st: stHeld, local: true, pool: name, acqPos: call.Pos()}
}

func (w *walker) graphCallees(call *ast.CallExpr) []*callgraph.Node {
	return w.c.graph.CalleesAt(call)
}

func (w *walker) assignPair(lhs, rhs ast.Expr) {
	lhsID, lhsIsIdent := ast.Unparen(lhs).(*ast.Ident)

	// Fresh acquisition: b := pool.Get(n) or b := helperReturningFresh().
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		fresh := w.freshResults(call)
		w.use(call, false)
		if lhsIsIdent && lhsID.Name != "_" {
			if v := w.objOf(lhsID); v != nil {
				if len(fresh) == 1 && fresh[0] {
					w.env[v] = w.heldInfo(call)
				} else {
					delete(w.env, v)
				}
			}
		} else if !lhsIsIdent {
			w.use(lhs, false)
		}
		return
	}

	// Alias of a tracked variable: give up on both sides.
	if rhsID, ok := ast.Unparen(rhs).(*ast.Ident); ok && lhsIsIdent {
		if v := w.objOf(rhsID); v != nil {
			if vi, tracked := w.env[v]; tracked && vi.st != stNone {
				w.useIdent(rhsID, true) // flags released-use, then escapes
				if lv := w.objOf(lhsID); lv != nil {
					delete(w.env, lv)
				}
				return
			}
		}
	}

	escaping := !lhsIsIdent // storing into a field/index/map escapes the value
	w.use(rhs, escaping)
	if lhsIsIdent {
		if lhsID.Name != "_" {
			if v := w.objOf(lhsID); v != nil {
				delete(w.env, v) // rebound to something untracked
			}
		}
	} else {
		w.use(lhs, false) // writing x.f or x[i] reads x
	}
}

// freshResults reports, per result index, whether call hands back a fresh
// acquisition: the registered acquire method itself, or a callee whose every
// return is fresh at that index.
func (w *walker) freshResults(call *ast.CallExpr) []bool {
	if _, role := w.c.methodRole(calleeFunc(w.info(), call)); role == roleAcquire {
		return []bool{true}
	}
	callees := w.graphCallees(call)
	if len(callees) == 0 {
		return nil
	}
	var fresh []bool
	for _, callee := range callees {
		sum := w.c.sums[callee]
		if sum == nil || sum.fresh == nil {
			return nil
		}
		if fresh == nil {
			fresh = append([]bool(nil), sum.fresh...)
			continue
		}
		if len(sum.fresh) != len(fresh) {
			return nil
		}
		for i := range fresh {
			fresh[i] = fresh[i] && sum.fresh[i]
		}
	}
	return fresh
}

// ---------------------------------------------------------------- return

func (w *walker) ret(s *ast.ReturnStmt) {
	returned := map[*types.Var]bool{}
	var votes []bool
	for _, res := range s.Results {
		isFresh := false
		switch e := ast.Unparen(res).(type) {
		case *ast.Ident:
			if v := w.objOf(e); v != nil {
				vi := w.env[v]
				if vi.st == stHeld && vi.local {
					isFresh = true
				}
				returned[v] = true
			}
		case *ast.CallExpr:
			if f := w.freshResults(e); len(f) == 1 && f[0] {
				isFresh = true
			}
		}
		votes = append(votes, isFresh)
	}

	w.leakCheck(s.Pos(), returned)

	for _, res := range s.Results {
		w.use(res, true) // ownership moves to the caller or escapes
	}

	if w.returns == 0 {
		w.freshVotes = votes
	} else {
		if len(votes) != len(w.freshVotes) {
			w.freshVotes = nil
		}
		for i := range w.freshVotes {
			if i < len(votes) {
				w.freshVotes[i] = w.freshVotes[i] && votes[i]
			} else {
				w.freshVotes[i] = false
			}
		}
	}
	w.returns++
	w.recordExit()
	w.terminated = true
}

// ---------------------------------------------------------------- expressions

// use walks an expression, flagging reads of released variables; escaping
// marks contexts that store the value somewhere beyond tracking.
func (w *walker) use(e ast.Expr, escaping bool) {
	switch e := e.(type) {
	case *ast.Ident:
		w.useIdent(e, escaping)
	case *ast.ParenExpr:
		w.use(e.X, escaping)
	case *ast.CallExpr:
		w.call(e)
	case *ast.UnaryExpr:
		w.use(e.X, e.Op == token.AND || escaping)
	case *ast.StarExpr:
		w.use(e.X, false)
	case *ast.SelectorExpr:
		w.use(e.X, false) // reading x.f does not move x
	case *ast.IndexExpr:
		w.use(e.X, false)
		w.use(e.Index, false)
	case *ast.SliceExpr:
		w.use(e.X, escaping) // a subslice shares the backing buffer
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b != nil {
				w.use(b, false)
			}
		}
	case *ast.BinaryExpr:
		w.use(e.X, false)
		w.use(e.Y, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.use(kv.Value, true)
				continue
			}
			w.use(el, true)
		}
	case *ast.TypeAssertExpr:
		w.use(e.X, escaping)
	case *ast.FuncLit:
		w.funcLit(e, false)
	case *ast.KeyValueExpr:
		w.use(e.Value, escaping)
	}
}

func (w *walker) useIdent(id *ast.Ident, escaping bool) {
	v := w.objOf(id)
	if v == nil {
		return
	}
	vi, tracked := w.env[v]
	if !tracked {
		return
	}
	switch vi.st {
	case stReleased:
		if w.doReport {
			w.c.report(id.Pos(), "use of %s after it was released to pool %s (released at %s)",
				id.Name, vi.pool, w.c.shortPos(vi.relPos))
		}
		vi.st = stEscaped // one report per variable, not per use
		w.env[v] = vi
	case stMaybe:
		if w.doReport {
			w.c.report(id.Pos(), "%s may be used after release: pool %s reclaims it on some path (released at %s)",
				id.Name, vi.pool, w.c.shortPos(vi.relPos))
		}
		vi.st = stEscaped
		w.env[v] = vi
	default:
		if escaping && vi.st != stNone {
			vi.st = stEscaped
			w.env[v] = vi
		}
	}
}

// call applies a call expression's effect on the environment.
func (w *walker) call(call *ast.CallExpr) {
	info := w.info()
	fn := calleeFunc(info, call)
	spec, role := w.c.methodRole(fn)

	// Receiver / callee expression chain.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.use(sel.X, false)
	}

	switch role {
	case roleRelease:
		if len(call.Args) == 1 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				w.releaseIdent(id, spec, call.Pos())
				return
			}
		}
		for _, a := range call.Args {
			w.use(a, false) // releasing a non-ident: contents only
		}
		return
	case roleAcquire:
		for _, a := range call.Args {
			w.use(a, false)
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				if len(call.Args) > 0 {
					w.use(call.Args[0], false)
					for _, a := range call.Args[1:] {
						w.use(a, true) // stored into the slice
					}
				}
			case "panic":
				for _, a := range call.Args {
					w.use(a, false)
				}
				w.terminated = true
			default: // len, cap, copy, delete, print, make, new, min, max...
				for _, a := range call.Args {
					w.use(a, false)
				}
			}
			return
		}
	}

	sched := isSchedCall(call)
	callees := w.graphCallees(call)
	fates := w.mergedParamFates(callees, len(call.Args))

	for i, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			w.funcLit(lit, sched)
			continue
		}
		f := fateEscaped // unresolved callee: give up on tracked args
		if fates != nil {
			f = fates[i]
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			switch f {
			case fateConsumed:
				w.consumeIdent(id, call.Pos())
			case fateEscaped:
				w.useIdent(id, true)
			default:
				w.useIdent(id, false)
			}
			continue
		}
		w.use(arg, f != fateBorrowed)
	}
}

// releaseIdent transitions a variable through a registered release call.
func (w *walker) releaseIdent(id *ast.Ident, spec poolSpec, pos token.Pos) {
	v := w.objOf(id)
	if v == nil {
		return
	}
	vi := w.env[v]
	switch vi.st {
	case stReleased:
		if w.doReport {
			w.c.report(pos, "%s released twice to pool %s (first released at %s)",
				id.Name, vi.pool, w.c.shortPos(vi.relPos))
		}
		vi.st = stEscaped
	case stMaybe:
		if w.doReport {
			w.c.report(pos, "%s may already be released: pool %s reclaimed it on some path (released at %s)",
				id.Name, vi.pool, w.c.shortPos(vi.relPos))
		}
		vi.st = stEscaped
	case stEscaped:
		// Ownership left our sight; trust the release.
	default:
		vi.st = stReleased
		vi.relPos = pos
		if vi.pool == "" {
			vi.pool = spec.name
		}
	}
	w.env[v] = vi
}

// consumeIdent transitions a variable passed to an all-paths-releasing callee.
func (w *walker) consumeIdent(id *ast.Ident, pos token.Pos) {
	v := w.objOf(id)
	if v == nil {
		return
	}
	vi := w.env[v]
	switch vi.st {
	case stReleased, stMaybe:
		w.useIdent(id, false) // flags the use-after-release
		return
	case stEscaped:
		return
	}
	vi.st = stReleased
	vi.relPos = pos
	if vi.pool == "" {
		vi.pool = "pool"
	}
	w.env[v] = vi
}

// mergedParamFates merges callee summaries; nil means unresolved.
func (w *walker) mergedParamFates(callees []*callgraph.Node, argc int) []fate {
	if len(callees) == 0 {
		return nil
	}
	var fates []fate
	for _, callee := range callees {
		sum := w.c.sums[callee]
		cur := make([]fate, argc)
		for i := 0; i < argc; i++ {
			cur[i] = fateBorrowed
			if sum != nil {
				switch {
				case i < len(sum.params):
					cur[i] = sum.params[i]
				case len(sum.params) > 0:
					cur[i] = sum.params[len(sum.params)-1] // variadic tail
				}
			}
		}
		if fates == nil {
			fates = cur
			continue
		}
		for i := range fates {
			fates[i] = mergeFates(fates[i], cur[i])
		}
	}
	return fates
}

// mergeFates joins fates across CHA candidates: any disagreement about
// ownership transfer is unsafe to act on, so it degrades to escape.
func mergeFates(a, b fate) fate {
	if a == b {
		return a
	}
	return fateEscaped
}

// isSchedCall reports whether the call's name is one of the deferred
// scheduling entry points (At/After/Schedule), by name so that *Sim and any
// wrapper with the same surface match.
func isSchedCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return schedNames[fun.Name]
	case *ast.SelectorExpr:
		return schedNames[fun.Sel.Name]
	}
	return false
}

// funcLit handles a function literal appearing as a value: any held resource
// it captures escapes, and if the literal is handed to a scheduling call the
// capture is defect class (d) — the closure may run after the buffer has
// been recycled.
func (w *walker) funcLit(lit *ast.FuncLit, sched bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.info().Uses[id].(*types.Var)
		if !ok {
			return true
		}
		vi, tracked := w.env[v]
		if !tracked || vi.st == stNone {
			return true
		}
		if sched && (vi.st == stHeld || vi.st == stMaybe) {
			if w.doReport {
				w.c.report(id.Pos(), "pooled %s buffer %s captured by closure scheduled with At/After/Schedule: it may be recycled before the event fires",
					vi.pool, id.Name)
			}
			vi.st = stEscaped
			w.env[v] = vi
			return true
		}
		// A captured released buffer is a deferred use-after-release;
		// useIdent reports it and escapes the variable either way.
		w.useIdent(id, true)
		return true
	})
}
