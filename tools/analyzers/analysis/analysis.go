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

// The justification markers. Each follows the directive comment convention
// — no space after //, the justification text after the marker word — and
// silences one analyzer's finding at the site it is attached to: on the
// site's first line, or on the line directly above.
const (
	// SuppressionComment exempts a site from the determinism analyzers
	// (maporder, walltime).
	SuppressionComment = "//simlint:deterministic"
	// SharedComment exempts one package-level variable from the sharedstate
	// analyzer.
	SharedComment = "//simlint:shared"
)

// Markers is the registry of every directive the suite understands, used by
// the justify analyzer to reject bare justifications and typoed markers.
var Markers = []string{SuppressionComment, SharedComment}

// markerMatches reports whether comment text is marker, optionally followed
// by a space-separated justification. `//simlint:shared` matches
// SharedComment; `//simlint:sharedx` does not.
func markerMatches(text, marker string) (justification string, ok bool) {
	if text == marker {
		return "", true
	}
	if rest, found := strings.CutPrefix(text, marker+" "); found {
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// MarkedAt looks for marker attached to the node beginning at pos: trailing
// on the same line, or on the line directly above. It returns the
// justification text following the marker and whether the marker was found;
// a found marker is recorded as consulted for the unusedmarker check.
func (p *Pass) MarkedAt(pos token.Pos, marker string) (justification string, ok bool) {
	line := p.Fset.Position(pos).Line
	for _, f := range p.Files {
		if pos < f.FileStart || f.FileEnd <= pos {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				just, match := markerMatches(c.Text, marker)
				if cl := p.Fset.Position(c.Pos()).Line; match && (cl == line || cl == line-1) {
					RecordMarkerUse(p.Fset, pos, marker)
					return just, true
				}
			}
		}
	}
	return "", false
}

// SuppressedAt reports whether the node beginning at pos carries a
// SuppressionComment (see MarkedAt).
func (p *Pass) SuppressedAt(pos token.Pos) bool {
	_, ok := p.MarkedAt(pos, SuppressionComment)
	return ok
}
