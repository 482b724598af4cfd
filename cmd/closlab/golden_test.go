package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.sha256 from this run")

const goldenPath = "testdata/golden.sha256"

// TestMain lets the test binary stand in for the closlab executable: with
// CLOSLAB_TEST_MAIN=1 it runs main() on its own arguments, so the tests below
// drive the real flag parsing, experiment registry and artifact writers
// without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("CLOSLAB_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// closlab runs the command in dir and returns its stdout, stderr and error.
func closlab(t *testing.T, dir string, args ...string) (stdout, stderr []byte, err error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CLOSLAB_TEST_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.Bytes(), errb.Bytes(), err
}

// TestGoldenArtifacts pins every byte every campaign produces at -pods 2
// -trials 1 -seed 1: each row's stdout and the files it writes. The run list
// is the campaigns table itself, so a row cannot be added unpinned. Same
// seed → same bytes is the repo's contract, so a change that is not meant to
// move simulated behaviour must leave this test green; one that is meant to
// reruns it with -update-golden and says so.
func TestGoldenArtifacts(t *testing.T) {
	dir := t.TempDir()
	for _, c := range campaigns {
		args := []string{"-experiment", c.name, "-trials", "1", "-seed", "1"}
		if c.name != "scale" { // owns its fabric sizes and rejects -pods
			args = append(args, "-pods", "2")
		}
		// The file-writing campaigns of -experiment all share out/, as that
		// command leaves it; everything else lands in figs/. A relative
		// -out keeps the temp path out of the printed summary, and a row
		// that writes no files takes no -out.
		sub := "figs"
		if len(c.artifacts) > 0 {
			if !c.optIn {
				sub = "out"
			}
			args = append(args, "-out", sub)
		}
		stdout, stderr, err := closlab(t, dir, args...)
		if err != nil {
			t.Fatalf("closlab -experiment %s: %v\n%s", c.name, err, stderr)
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, c.name+".stdout"), stdout, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var got strings.Builder // sha256sum format; Glob returns names sorted
	for _, sub := range []string{"out", "figs"} {
		names, err := filepath.Glob(filepath.Join(dir, sub, "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			fmt.Fprintf(&got, "%s  %s\n", hex.EncodeToString(sum[:]), filepath.Base(name))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("first artifact that moved (line %d of %s):\n got  %q\n want %q", i+1, goldenPath, g, w)
		}
	}
}
