// Command simlint is the repo's lint driver: a multichecker that runs the
// custom analyzers under tools/analyzers over the module and fails if any
// site violates the determinism contract (DESIGN.md §8) or the hot-path
// contract (DESIGN.md §9).
//
// Usage:
//
//	simlint [-sarif] [packages]
//
// With no arguments it checks ./... . Each analyzer applies only to the
// packages where its rule is a contract rather than a style preference:
//
//	maporder     repro/internal/...  (simulation + protocol code)
//	walltime     repro/internal/...
//	sharedstate  repro/internal/...  (everything a trial worker can reach)
//	panicpath    the packet-processing packages (mrmtp, ipstack, ethernet,
//	             ipv4, udp, tcp); cmd/ stays out of scope — its writers
//	             return errors, which the errcheck sweep makes them handle
//	allocfree    the packet-processing packages plus simnet (hot-path
//	             roots are the //simlint:hotpath annotations)
//	framealias   the packet-processing packages plus simnet (frame
//	             ownership at the Port.Send boundary)
//	justify      every package (a bare //simlint marker is wrong anywhere)
//	unusedmarker every package, last; reports justification markers that no
//	             analyzer consulted during this run — stale suppressions
//	             whose finding has moved or disappeared
//
// unusedmarker is scoped per marker: a marker only counts as stale in
// packages where the analyzer that honors it actually ran (see
// markerApplies).
//
// Diagnostics print as file:line:col: message (analyzer); with -sarif they
// are emitted instead as a SARIF 2.1.0 log for code-scanning upload. The
// exit status is 1 if anything was reported, 2 on operational failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/tools/analyzers/allocfree"
	"repro/tools/analyzers/analysis"
	"repro/tools/analyzers/framealias"
	"repro/tools/analyzers/justify"
	"repro/tools/analyzers/load"
	"repro/tools/analyzers/maporder"
	"repro/tools/analyzers/panicpath"
	"repro/tools/analyzers/sharedstate"
	"repro/tools/analyzers/walltime"
)

// packetPkgs are the packages whose code runs per simulated packet; they
// carry the panicpath rule and, together with simnet, the hot-path rules.
var packetPkgs = map[string]bool{
	"repro/internal/mrmtp":    true,
	"repro/internal/ipstack":  true,
	"repro/internal/ethernet": true,
	"repro/internal/ipv4":     true,
	"repro/internal/udp":      true,
	"repro/internal/tcp":      true,
}

func isPacketPkg(p string) bool { return packetPkgs[p] }

// isHotPkg additionally covers the simulator core and its frame arena:
// Port.Send, frame delivery, and buffer recycling are the innermost loop of
// every experiment.
func isHotPkg(p string) bool {
	return packetPkgs[p] || p == "repro/internal/simnet" || p == "repro/internal/simnet/framepool"
}

func isInternal(importPath string) bool {
	return strings.HasPrefix(importPath, "repro/internal/")
}

func anyPkg(string) bool { return true }

// checks pairs each analyzer with its package scope; every package runs
// its applicable rows in this order.
var checks = []struct {
	analyzer *analysis.Analyzer
	applies  func(importPath string) bool
}{
	{maporder.Analyzer, isInternal},
	{walltime.Analyzer, isInternal},
	{sharedstate.Analyzer, isInternal},
	{panicpath.Analyzer, isPacketPkg},
	{allocfree.Analyzer, isHotPkg},
	{framealias.Analyzer, isHotPkg},
	{justify.Analyzer, anyPkg},
	// unusedmarker must stay last: it audits the consultations every
	// other analyzer recorded on the package.
	{justify.UnusedMarkers(markerApplies), anyPkg},
}

// markerApplies tells unusedmarker where each justification marker is within
// some analyzer's sight; a marker outside its analyzer's package scope is
// unreachable, not stale. This table mirrors checks above.
func markerApplies(importPath, marker string) bool {
	switch marker {
	case analysis.SuppressionComment, // maporder, walltime, sharedstate
		analysis.SharedComment: // sharedstate
		return isInternal(importPath)
	case analysis.AllocComment, analysis.FrameOwnComment: // allocfree, framealias
		return isHotPkg(importPath)
	}
	return false
}

// finding is one printable diagnostic.
type finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

func main() {
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log instead of text")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	pkgs, err := load.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	analysis.ResetMarkerUsage()

	var findings []finding
	relFile := func(file string) string {
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
		return file
	}

	for _, pkg := range pkgs {
		for _, c := range checks {
			if !c.applies(pkg.ImportPath) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  c.analyzer,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := c.analyzer.Name
			fset := pkg.Fset
			pass.Report = func(d analysis.Diagnostic) {
				pos := fset.Position(d.Pos)
				findings = append(findings, finding{
					File: relFile(pos.Filename), Line: pos.Line, Col: pos.Column,
					Message: d.Message, Analyzer: name,
				})
			}
			if _, err := c.analyzer.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "simlint: %s on %s: %v\n", name, pkg.ImportPath, err)
				os.Exit(2)
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	if *sarifOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sarifLog(findings)); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
