package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealThings keeps the three documents that tell a reader how to
// regenerate a result honest. Every `-experiment name` they mention must be
// a campaigns row (or all), every Test/Benchmark/Fuzz identifier a func in
// some _test.go of the module (a trailing * makes it a prefix), every `make
// target` (after a backtick or at the start of a line, as in a code block)
// a Makefile target, and every `go run ./dir` and every internal/<pkg> an
// existing directory.
func TestDocsNameRealThings(t *testing.T) {
	const root = "../.."
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range funcDecl.FindAllSubmatch(src, -1) {
				funcs = append(funcs, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	makefile := "\n" + string(mk)
	isDir := func(dir string) bool {
		info, err := os.Stat(filepath.Join(root, dir))
		return err == nil && info.IsDir()
	}
	checks := []struct {
		what   string
		re     *regexp.Regexp
		exists func(name string) bool
	}{
		{"-experiment", regexp.MustCompile(`-experiment <?([a-z0-9|-]+)`), func(names string) bool {
			for _, name := range strings.Split(names, "|") { // docs write nodefail|flap
				if !strings.Contains("|"+experimentNames()+"|", "|"+name+"|") {
					return false
				}
			}
			return true
		}},
		{"test function", regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z]\w*\*?)`), func(name string) bool {
			prefix, isPrefix := strings.CutSuffix(name, "*")
			for _, f := range funcs {
				if f == name || isPrefix && strings.HasPrefix(f, prefix) {
					return true
				}
			}
			return false
		}},
		{"make target", regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z0-9-]*)"), func(target string) bool {
			return strings.Contains(makefile, "\n"+target+":")
		}},
		{"go run directory", regexp.MustCompile(`go run (\./[\w./-]+)`), isDir},
		{"package", regexp.MustCompile(`\b(internal/\w+)`), isDir},
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range checks {
			for _, m := range c.re.FindAllSubmatch(text, -1) {
				if name := string(m[1]); !c.exists(name) {
					t.Errorf("%s: %s %q does not exist", doc, c.what, name)
				}
			}
		}
	}
}
