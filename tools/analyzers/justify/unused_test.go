package justify_test

import (
	"path/filepath"
	"testing"

	"repro/tools/analyzers/analysis"
	"repro/tools/analyzers/analysistest"
	"repro/tools/analyzers/justify"
	"repro/tools/analyzers/load"
	"repro/tools/analyzers/walltime"
)

// TestUnusedMarkers drives the full consultation loop: walltime runs first
// and consults the live suppression in the fixture (recording the use via
// the marker accessors), then the unusedmarker pass reports only the marker
// nothing consulted. The registry keys by file:line, so the two loads of the
// fixture (separate FileSets) still agree.
func TestUnusedMarkers(t *testing.T) {
	analysis.ResetMarkerUsage()

	pkg, err := load.LoadDir(filepath.Join(analysistest.TestData(), "src", "stale"))
	if err != nil {
		t.Fatal(err)
	}
	pass := &analysis.Pass{
		Analyzer:  walltime.Analyzer,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(analysis.Diagnostic) {}, // suppressed sites report nothing anyway
	}
	if _, err := walltime.Analyzer.Run(pass); err != nil {
		t.Fatalf("walltime: %v", err)
	}

	analysistest.Run(t, analysistest.TestData(), justify.UnusedMarkers, "stale")
}
