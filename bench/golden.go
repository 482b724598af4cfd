package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// goldenJSON is the seed-1 simulated statistics of every workload at -scale
// full, per GOARCH: the fluid solver's float arithmetic may legitimately
// round differently where the compiler fuses multiply-adds.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	Digest string  `json:"digest"`
	Fields []field `json:"fields"`
}

// golden maps GOARCH to workload name to the expected statistics.
type golden map[string]map[string]goldenEntry

// goldenSeed and the full scale are the only inputs golden.json covers.
const goldenSeed = 1

// checkGolden holds a seed-1 full-scale result to golden.json. A mismatch
// fails every operation of the workload and names the first statistic that
// moved; an architecture without an entry is skipped with a warning.
func checkGolden(c config, res *childResult) {
	if c.seed != goldenSeed || c.scale.name != "full" {
		return
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		res.Failed = res.Attempted
		res.Errors = append(res.Errors, fmt.Sprintf("golden.json: %v", err))
		return
	}
	want, ok := g[runtime.GOARCH][res.Workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: warning: golden.json has no %s entry for %s; sim_digest not checked (run -update-golden)\n",
			runtime.GOARCH, res.Workload)
		return
	}
	if want.Digest != res.Digest {
		res.Failed = res.Attempted
		res.Errors = append(res.Errors, "sim_digest differs from golden.json: "+firstDiff(want.Fields, res.Fields))
	}
}

// writeGolden reruns every workload once at seed 1 and rewrites this
// architecture's section of bench/golden.json (run from the repository
// root). The file is embedded, so the check sees it from the next build.
func writeGolden(c config) error {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if g == nil {
		g = make(golden)
	}
	c.seed, c.reps, c.trace = goldenSeed, 1, false
	entries := make(map[string]goldenEntry)
	for _, w := range workloads {
		c.workload = w.name
		res, err := spawn(c, 0)
		if err != nil {
			return err
		}
		for _, e := range res.Errors {
			// A stale golden entry is expected here; anything else is not.
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
		}
		entries[w.name] = goldenEntry{Digest: res.Digest, Fields: res.Fields}
		fmt.Printf("%s %s %s\n", runtime.GOARCH, w.name, res.Digest)
	}
	g[runtime.GOARCH] = entries
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "golden.json"), append(data, '\n'), 0o644)
}
