// Package sharedstate enforces the parallel trial harness's purity contract
// (DESIGN.md §8): code that runs inside harness.runTrials workers must not
// reach package-level mutable state, so concurrent trials are data-race-free
// by construction rather than by -race luck. Because any internal package
// can be pulled into a trial, the rule is structural: a package-level var is
// rejected unless it is provably inert. Allowed are:
//
//   - error-typed vars (the sentinel-error idiom; errors are written once at
//     package init and only compared afterwards);
//   - unexported vars of deeply immutable type (basics, strings, arrays and
//     structs thereof) that the package never writes or takes the address
//     of.
//
// Everything else is flagged: exported vars (writable from any package),
// vars the package itself writes, and vars whose type carries mutable
// indirection — maps, slices, pointers, channels, interfaces, or anything
// from package sync (a sync.Once cache is still cross-trial state). The
// escape hatch is `//simlint:shared <why>` on the declaration (or the line
// above); the justification text is mandatory.
package sharedstate

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the trial-purity check.
var Analyzer = &analysis.Analyzer{
	Name: "sharedstate",
	Doc:  "flags package-level mutable state reachable from parallel trial workers",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	// Collect the package-level vars.
	type pkgVar struct {
		obj  *types.Var
		name *ast.Ident
	}
	var vars []pkgVar
	byObj := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					vars = append(vars, pkgVar{obj: obj, name: name})
					byObj[obj] = true
				}
			}
		}
	}
	if len(vars) == 0 {
		return nil, nil
	}

	// Find in-package writes and address-taking of those vars.
	written := map[types.Object]bool{}
	use := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		return pass.TypesInfo.Uses[id]
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if obj := use(lhs); obj != nil && byObj[obj] {
						written[obj] = true
					}
				}
			case *ast.IncDecStmt:
				if obj := use(n.X); obj != nil && byObj[obj] {
					written[obj] = true
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if obj := use(n.X); obj != nil && byObj[obj] {
						written[obj] = true
					}
				}
			}
			return true
		})
	}

	errType := types.Universe.Lookup("error").Type()
	for _, v := range vars {
		if types.Identical(v.obj.Type(), errType) {
			continue // sentinel error
		}
		reason := ""
		switch {
		case v.name.IsExported():
			reason = "is exported, so any package can write it"
		case written[v.obj]:
			reason = "is written by this package"
		case mutableType(v.obj.Type(), nil):
			reason = "has a type with mutable indirection (" + v.obj.Type().String() + ")"
		}
		if reason == "" {
			continue
		}
		just, marked := pass.MarkedAt(v.name.Pos(), analysis.SharedComment)
		if marked {
			if just == "" {
				pass.Reportf(v.name.Pos(), "%s requires a written justification", analysis.SharedComment)
			}
			continue
		}
		pass.Reportf(v.name.Pos(),
			"package-level var %s %s; trial workers share it — move it into per-trial state or justify with %s <why>",
			v.name.Name, reason, analysis.SharedComment)
	}
	return nil, nil
}

// mutableType reports whether t carries mutable indirection: maps, slices,
// pointers, channels, interfaces, or any type from package sync. Basics,
// strings, funcs (calling one cannot mutate the var; reassignment is the
// write check's job), and arrays/structs of immutable types are inert.
func mutableType(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "sync" {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Array:
		return mutableType(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if mutableType(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Signature:
		return false
	default:
		// Map, slice, pointer, chan, interface.
		return true
	}
}
