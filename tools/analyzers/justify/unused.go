package justify

// The unusedmarker pass closes the suppression loop. A justification
// marker earns its keep by being consulted: some analyzer looks at the site,
// finds the marker, and either suppresses its finding or anchors a
// bare-marker diagnostic. When refactoring moves the finding away — the
// allocation is gone, the clock mixing was restructured — the marker stays
// behind, silently ready to swallow the next genuine regression at that
// line. This pass runs after every other analyzer has seen the package and
// reports justification markers nothing consulted.
//
// Declarative markers (//simlint:hotpath) label sites rather than suppress
// findings and are never reported.
//
// Consultations are recorded by the analysis package's marker accessors
// (Pass.SuppressedAt, Pass.MarkedAt), so any analyzer using them
// participates automatically. Every analyzer is per-package, so a marker can
// only be consulted by a pass over its own package: the driver must run this
// pass LAST on each package, and that is enough.

import (
	"strings"

	"repro/tools/analyzers/analysis"
)

// UnusedMarkers returns the stale-suppression audit. applies, when non-nil,
// restricts which markers are expected to be consulted in which packages: a
// //simlint:deterministic comment in a package the determinism analyzers
// never check is out of every analyzer's sight, not stale. The driver derives
// it from its own scope table.
func UnusedMarkers(applies func(importPath, marker string) bool) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "unusedmarker",
		Doc:  "reports justification markers no analyzer consulted (stale suppressions)",
		Run: func(pass *analysis.Pass) (any, error) {
			for _, f := range pass.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						marker, ok := markerOf(c.Text)
						if !ok || (applies != nil && !applies(pass.Pkg.Path(), marker)) ||
							analysis.MarkerUsedAt(pass.Fset, c.Pos(), marker) {
							continue
						}
						pass.Reportf(c.Pos(),
							"stale %s marker: no analyzer consulted it, so the finding it justified is gone — delete the marker",
							marker)
					}
				}
			}
			return nil, nil
		},
	}
}

// markerOf matches a comment against the registered justification markers;
// declarative markers never count.
func markerOf(text string) (string, bool) {
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	word := text
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		word = text[:i]
	}
	for _, m := range analysis.Markers {
		if word == m.Comment {
			return word, !m.Declarative
		}
	}
	return "", false
}
