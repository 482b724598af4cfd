// Command simlint is the repo's lint driver: a multichecker that runs the
// custom analyzers under tools/analyzers over the module and fails if any
// site violates the determinism contract (DESIGN.md §8). The hot-path
// contract (DESIGN.md §9) is held by allocation budgets in the tests.
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
//	justify      every package (a bare //simlint marker is wrong anywhere)
//	unusedmarker repro/internal/..., last; reports justification markers
//	             that no analyzer consulted during this run — stale
//	             suppressions whose finding has moved or disappeared. Both
//	             markers belong to analyzers scoped to repro/internal/...,
//	             so a marker elsewhere is out of sight, not stale.
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

	"repro/tools/analyzers/analysis"
	"repro/tools/analyzers/justify"
	"repro/tools/analyzers/load"
	"repro/tools/analyzers/maporder"
	"repro/tools/analyzers/panicpath"
	"repro/tools/analyzers/sharedstate"
	"repro/tools/analyzers/walltime"
)

// packetPkgs are the packages whose code runs per simulated packet; they
// carry the panicpath rule.
var packetPkgs = map[string]bool{
	"repro/internal/mrmtp":    true,
	"repro/internal/ipstack":  true,
	"repro/internal/ethernet": true,
	"repro/internal/ipv4":     true,
	"repro/internal/udp":      true,
	"repro/internal/tcp":      true,
}

func isPacketPkg(p string) bool { return packetPkgs[p] }

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
	{justify.Analyzer, anyPkg},
	// unusedmarker must stay last: it audits the consultations every
	// other analyzer recorded on the package.
	{justify.UnusedMarkers, isInternal},
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
