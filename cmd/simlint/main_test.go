package main

// Driver-level tests: build the simlint binary once, run it against the
// mini-modules under testdata/modules (each declares `module repro` so the
// per-analyzer package scopes apply), and pin the exit-status contract
// (0 clean / 1 findings / 2 operational error) and the -json and -sarif
// output schemas.

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildSimlint compiles the driver into the test's temp dir.
func buildSimlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "simlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building simlint: %v\n%s", err, out)
	}
	return bin
}

// runSimlint executes the binary inside one fixture module.
func runSimlint(t *testing.T, bin, module string, args ...string) (stdout string, exit int) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "modules", module))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running simlint in %s: %v", module, err)
		}
		return string(out), ee.ExitCode()
	}
	return string(out), 0
}

func TestExitStatus(t *testing.T) {
	bin := buildSimlint(t)
	cases := []struct {
		name   string
		module string
		args   []string
		exit   int
	}{
		{"clean-text", "clean", nil, 0},
		{"clean-json", "clean", []string{"-json"}, 0},
		{"clean-sarif", "clean", []string{"-sarif"}, 0},
		{"dirty-text", "dirty", nil, 1},
		{"dirty-json", "dirty", []string{"-json"}, 1},
		{"dirty-sarif", "dirty", []string{"-sarif"}, 1},
		{"bad-pattern", "clean", []string{"./does/not/exist/..."}, 2},
		{"json-and-sarif", "clean", []string{"-json", "-sarif"}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, exit := runSimlint(t, bin, c.module, c.args...); exit != c.exit {
				t.Errorf("exit = %d, want %d", exit, c.exit)
			}
		})
	}
}

func TestJSONSchema(t *testing.T) {
	bin := buildSimlint(t)

	out, exit := runSimlint(t, bin, "dirty", "-json")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1", exit)
	}
	var got []finding
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, out)
	}
	if len(got) != 3 {
		t.Fatalf("got %d findings, want 3: %+v", len(got), got)
	}
	wantAnalyzers := []string{"walltime", "justify", "unusedmarker"}
	for i, f := range got {
		if f.Analyzer != wantAnalyzers[i] {
			t.Errorf("finding %d analyzer = %q, want %q", i, f.Analyzer, wantAnalyzers[i])
		}
		if f.File != filepath.Join("internal", "bad", "bad.go") {
			t.Errorf("finding %d file = %q", i, f.File)
		}
		if f.Line <= 0 || f.Col <= 0 || f.Message == "" {
			t.Errorf("finding %d incomplete: %+v", i, f)
		}
	}
	if got[0].Line >= got[1].Line {
		t.Errorf("findings not sorted by line: %d then %d", got[0].Line, got[1].Line)
	}

	// A clean run still emits a well-formed (empty) array.
	out, exit = runSimlint(t, bin, "clean", "-json")
	if exit != 0 {
		t.Fatalf("clean exit = %d, want 0", exit)
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil || len(got) != 0 {
		t.Fatalf("clean -json = %q (err %v), want []", out, err)
	}
}

func TestSARIFSchema(t *testing.T) {
	bin := buildSimlint(t)
	out, exit := runSimlint(t, bin, "dirty", "-sarif")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1", exit)
	}
	var log sarifFile
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("-sarif output is not a SARIF log: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || log.Schema == "" {
		t.Errorf("version = %q schema = %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "simlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// Every registered analyzer appears in the rule table, findings or not.
	rules := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no description", r.ID)
		}
		rules[r.ID] = true
	}
	for _, want := range []string{"maporder", "walltime", "sharedstate", "panicpath", "allocfree", "framealias", "justify", "unusedmarker"} {
		if !rules[want] {
			t.Errorf("rule table missing %s (have %v)", want, rules)
		}
	}
	if len(run.Results) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(run.Results), run.Results)
	}
	for i, r := range run.Results {
		if !rules[r.RuleID] {
			t.Errorf("result %d ruleId %q not in rule table", i, r.RuleID)
		}
		if r.Level != "error" || r.Message.Text == "" {
			t.Errorf("result %d level/message incomplete: %+v", i, r)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %d has %d locations", i, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != filepath.Join("internal", "bad", "bad.go") {
			t.Errorf("result %d uri = %q", i, loc.ArtifactLocation.URI)
		}
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("result %d uriBaseId = %q", i, loc.ArtifactLocation.URIBaseID)
		}
		if loc.Region.StartLine <= 0 || loc.Region.StartColumn <= 0 {
			t.Errorf("result %d region incomplete: %+v", i, loc.Region)
		}
	}
}
