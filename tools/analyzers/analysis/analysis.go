// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver contract, shaped so that the repo's
// custom analyzers could be ported to the real framework by changing one
// import path. The container this repo builds in has no module proxy access,
// so the framework rides on the standard library only: packages are loaded
// with `go list -deps -export` and type-checked against compiler export data
// (see tools/analyzers/load).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description of what the analyzer rejects.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's worth of parsed and type-checked input to an
// analyzer, mirroring x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// SuppressionComment is the in-source justification marker. A site carrying
// this comment (on its own line immediately above the statement, or trailing
// on the statement's first line) is exempt from the determinism analyzers;
// the text after the marker should say why the site is safe.
const SuppressionComment = "//simlint:deterministic"

// Markers understood by the hot-path contract analyzers (DESIGN.md §9). All
// follow the directive comment convention: no space after //, optional
// justification text after the marker word.
const (
	// HotPathComment marks a function as a hot-path root for the allocfree
	// analyzer. It must appear as a line of the function's doc comment.
	HotPathComment = "//simlint:hotpath"
	// AllocComment exempts one allocating site inside a hot path. The text
	// after the marker must justify the allocation; an empty justification
	// is itself a diagnostic.
	AllocComment = "//simlint:alloc"
	// FrameOwnComment exempts one frame retention or post-handoff mutation
	// site from the framealias analyzer, with a required justification.
	FrameOwnComment = "//simlint:frameown"
	// SharedComment exempts one package-level variable from the sharedstate
	// analyzer, with a required justification.
	SharedComment = "//simlint:shared"
)

// Markers is the registry of every directive the suite understands, used by
// the justify analyzer to reject bare justifications and typoed markers.
// Declarative markers label a site for another analyzer and need no reason;
// justification markers silence a diagnostic and must say why.
var Markers = []struct {
	Comment     string
	Declarative bool
}{
	{SuppressionComment, false},
	{HotPathComment, true},
	{AllocComment, false},
	{FrameOwnComment, false},
	{SharedComment, false},
}

// markerMatches reports whether comment text is marker, optionally followed
// by a space-separated justification. `//simlint:alloc` matches AllocComment;
// `//simlint:allocator` does not.
func markerMatches(text, marker string) (justification string, ok bool) {
	if text == marker {
		return "", true
	}
	if rest, found := strings.CutPrefix(text, marker+" "); found {
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// MarkerAt looks for a marker comment attached to the node beginning at pos:
// trailing on the same line, or on the line directly above. It returns the
// justification text following the marker and whether the marker was found.
func MarkerAt(fset *token.FileSet, file *ast.File, pos token.Pos, marker string) (justification string, ok bool) {
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			just, match := markerMatches(c.Text, marker)
			if !match {
				continue
			}
			cl := fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				return just, true
			}
		}
	}
	return "", false
}

// FuncMarked reports whether fn's doc comment contains marker as one of its
// lines (the directive must be part of the doc block — a detached comment
// separated by a blank line does not count), returning any justification.
func FuncMarked(fn *ast.FuncDecl, marker string) (justification string, ok bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		if just, match := markerMatches(c.Text, marker); match {
			return just, true
		}
	}
	return "", false
}

// Suppressed reports whether the node beginning at pos carries a
// SuppressionComment in file: either trailing on the same line or on the
// line directly above.
func Suppressed(fset *token.FileSet, file *ast.File, pos token.Pos) bool {
	_, ok := MarkerAt(fset, file, pos, SuppressionComment)
	return ok
}

// FileFor returns the *ast.File in the pass containing pos, or nil.
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// SuppressedAt reports whether pos carries a suppression comment in its file.
// A found marker is recorded as consulted for the unusedmarker check.
func (p *Pass) SuppressedAt(pos token.Pos) bool {
	f := p.FileFor(pos)
	if f == nil || !Suppressed(p.Fset, f, pos) {
		return false
	}
	RecordMarkerUse(p.Fset, pos, SuppressionComment)
	return true
}

// MarkedAt looks for marker attached to pos in its file (same line or line
// above), returning the justification text and whether it was found. A found
// marker is recorded as consulted for the unusedmarker check.
func (p *Pass) MarkedAt(pos token.Pos, marker string) (justification string, ok bool) {
	f := p.FileFor(pos)
	if f == nil {
		return "", false
	}
	just, ok := MarkerAt(p.Fset, f, pos, marker)
	if ok {
		RecordMarkerUse(p.Fset, pos, marker)
	}
	return just, ok
}
