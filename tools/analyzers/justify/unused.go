package justify

// The unusedmarker pass closes the suppression loop. A justification
// marker earns its keep by being consulted: some analyzer looks at the site,
// finds the marker, and either suppresses its finding or anchors a
// bare-marker diagnostic. When refactoring moves the finding away — the map
// range is gone, the clock mixing was restructured — the marker stays
// behind, silently ready to swallow the next genuine regression at that
// line. This pass runs after every other analyzer has seen the package and
// reports justification markers nothing consulted.
//
// Consultations are recorded by the analysis package's marker accessors
// (Pass.SuppressedAt, Pass.MarkedAt), so any analyzer using them
// participates automatically. Every analyzer is per-package, so a marker can
// only be consulted by a pass over its own package: the driver must run this
// pass LAST on each package, and that is enough.

import (
	"slices"

	"repro/tools/analyzers/analysis"
)

// UnusedMarkers is the stale-suppression audit. The driver runs it only on
// packages inside the scope of the analyzers that honor the markers: a
// marker out of every analyzer's sight is unreachable, not stale.
var UnusedMarkers = &analysis.Analyzer{
	Name: "unusedmarker",
	Doc:  "reports justification markers no analyzer consulted (stale suppressions)",
	Run:  runUnused,
}

func runUnused(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				marker, ok := directive(c.Text)
				if !ok || !slices.Contains(analysis.Markers, marker) || analysis.MarkerUsedAt(pass.Fset, c.Pos(), marker) {
					continue
				}
				pass.Reportf(c.Pos(),
					"stale %s marker: no analyzer consulted it, so the finding it justified is gone — delete the marker",
					marker)
			}
		}
	}
	return nil, nil
}
