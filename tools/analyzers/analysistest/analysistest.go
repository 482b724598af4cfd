// Package analysistest runs an analyzer over golden fixture packages and
// checks its diagnostics against `// want "regexp"` expectations embedded in
// the fixture source — the same contract as
// golang.org/x/tools/go/analysis/analysistest, reimplemented on the
// standard library for this repo's offline build environment.
//
// Fixtures live in testdata/src/<pkg>/*.go under the analyzer's directory.
// A line expecting a diagnostic carries a trailing comment of the form
//
//	code() // want "regexp matching the message"
//
// Multiple expectations on one line are allowed (`// want "a" "b"`); a
// backquoted Go string may be used instead of a quoted one. Every reported
// diagnostic must match a same-line expectation and vice versa.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/tools/analyzers/analysis"
	"repro/tools/analyzers/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// expectation is one `// want` entry.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// Run loads each fixture package and applies the analyzer, failing t on any
// mismatch between diagnostics and expectations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, name := range pkgs {
		pkg, err := load.LoadDir(filepath.Join(testdata, "src", name))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		runPackage(t, a, pkg)
	}
}

func runPackage(t *testing.T, a *analysis.Analyzer, pkg *load.Package) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		wants = append(wants, parseExpectations(t, pkg.Fset, f)...)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer failed: %v", a.Name, err)
	}
	checkDiagnostics(t, a.Name, pkg.Fset, diags, wants)
}

// checkDiagnostics matches reported diagnostics against expectations
// one-to-one: every diagnostic must hit a same-line want and vice versa.
func checkDiagnostics(t *testing.T, name string, fset *token.FileSet, diags []analysis.Diagnostic, wants []*expectation) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.used || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", name, pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none", name, w.file, w.line, w.re)
		}
	}
}

// parseExpectations extracts `// want` comments from one file.
func parseExpectations(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := wantText(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			patterns, err := splitPatterns(text)
			if err != nil {
				t.Fatalf("%s: bad want comment: %v", pos, err)
			}
			for _, p := range patterns {
				re, err := regexp.Compile(p)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, p, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out
}

// wantText extracts the pattern list of a want expectation. The marker may
// open the comment (`// want "re"`) or trail other comment text at a space
// boundary (`//simlint:shared // want "re"`) — the latter lets fixtures
// expect diagnostics that analyzers anchor on a marker comment itself, where
// a second line comment cannot follow on the same line.
func wantText(text string) (string, bool) {
	if rest, ok := strings.CutPrefix(text, "// want "); ok {
		return rest, true
	}
	const embedded = " // want "
	if i := strings.Index(text, embedded); i >= 0 {
		return text[i+len(embedded):], true
	}
	return "", false
}

// splitPatterns parses a space-separated sequence of Go string literals.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for len(s) > 0 {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated pattern in %q", s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad pattern %q: %v", s[:end+1], err)
			}
			out = append(out, unq)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated pattern in %q", s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[2+end:])
		default:
			return nil, fmt.Errorf("expected quoted pattern, got %q", s)
		}
	}
	return out, nil
}
