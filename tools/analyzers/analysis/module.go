package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file extends the single-package driver contract with module-wide
// passes. The interprocedural analyzers (lifetime, unusedmarker) need every
// loaded source package at once: a pooled buffer acquired in one package
// can be released by a helper in another, and only a cross-package view can
// connect the two.

// PackageUnit is one loaded package inside a module pass. All units of a
// pass share a single token.FileSet (the loader parses every target into
// one), so positions are comparable across packages.
type PackageUnit struct {
	ImportPath string
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
}

// ModuleAnalyzer is a static check that runs once over the whole loaded
// package set instead of once per package.
type ModuleAnalyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description of what the analyzer rejects.
	Doc string
	// Run applies the analyzer to the module.
	Run func(*ModulePass) (any, error)
}

// ModulePass carries every loaded package to a module analyzer.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Fset     *token.FileSet
	Units    []*PackageUnit
	// ReportIn, when non-nil, restricts diagnostics: the driver sets it so
	// an analyzer only reports inside the packages it was asked to check,
	// even though it reads the whole module for call graphs and summaries.
	ReportIn func(importPath string) bool
	Report   func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos, attributed to the unit the
// position belongs to; it is dropped when ReportIn rejects that unit.
func (p *ModulePass) Reportf(unit *PackageUnit, pos token.Pos, format string, args ...any) {
	if p.ReportIn != nil && unit != nil && !p.ReportIn(unit.ImportPath) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// UnitFor returns the unit containing pos, or nil.
func (p *ModulePass) UnitFor(pos token.Pos) *PackageUnit {
	for _, u := range p.Units {
		if u.FileFor(pos) != nil {
			return u
		}
	}
	return nil
}

// FileFor returns the *ast.File in the unit containing pos, or nil.
func (u *PackageUnit) FileFor(pos token.Pos) *ast.File {
	for _, f := range u.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// MarkedAt looks for marker attached to pos (same line or the line above) in
// the unit's files, returning the justification text and whether it was
// found. A found marker is recorded as consulted for the unusedmarker check.
func (u *PackageUnit) MarkedAt(fset *token.FileSet, pos token.Pos, marker string) (justification string, ok bool) {
	f := u.FileFor(pos)
	if f == nil {
		return "", false
	}
	just, ok := MarkerAt(fset, f, pos, marker)
	if ok {
		RecordMarkerUse(fset, pos, marker)
	}
	return just, ok
}
