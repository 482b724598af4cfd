package main

// Driver-level tests: build the simlint binary once, run it against the
// mini-modules under testdata/modules (each declares `module repro` so the
// per-analyzer package scopes apply), and pin the exit-status contract
// (0 clean / 1 findings / 2 operational error) and the -sarif output
// schema.

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
		{"clean-sarif", "clean", []string{"-sarif"}, 0},
		{"dirty-text", "dirty", nil, 1},
		{"dirty-sarif", "dirty", []string{"-sarif"}, 1},
		{"bad-pattern", "clean", []string{"./does/not/exist/..."}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, exit := runSimlint(t, bin, c.module, c.args...); exit != c.exit {
				t.Errorf("exit = %d, want %d", exit, c.exit)
			}
		})
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
	// Results come sorted by position: the first two sit on distinct lines.
	wantRules := []string{"walltime", "justify", "unusedmarker"}
	prevLine := 0
	for i, r := range run.Results {
		if r.RuleID != wantRules[i] {
			t.Errorf("result %d ruleId = %q, want %q", i, r.RuleID, wantRules[i])
		}
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
		if i == 1 && loc.Region.StartLine <= prevLine {
			t.Errorf("results not sorted by line: %d then %d", prevLine, loc.Region.StartLine)
		}
		prevLine = loc.Region.StartLine
	}
}
