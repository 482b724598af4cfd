// Command topogen builds a folded-Clos topology description, verifies its
// structural invariants, and emits the paper's Listing-2 MR-MTP
// configuration JSON (or validates an existing one with -validate).
//
// Usage:
//
//	topogen -pods 4                      # emit the 4-PoD Listing-2 JSON
//	topogen -pods 8 -leaves 4 -spines 4  # scale-out fabric (paper §IX)
//	topogen -pods 8 -servers 2           # two servers per rack
//	topogen -validate config.json        # check an existing file
//	topogen -pods 4 -summary             # device/link inventory only
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/topology"
)

func main() {
	pods := flag.Int("pods", 2, "number of PoDs")
	leaves := flag.Int("leaves", 2, "ToRs per PoD")
	spines := flag.Int("spines", 2, "tier-2 spines per PoD")
	uplinks := flag.Int("uplinks", 2, "uplinks per tier-2 spine")
	servers := flag.Int("servers", 1, "servers per rack")
	summary := flag.Bool("summary", false, "print the fabric inventory instead of JSON")
	validate := flag.String("validate", "", "validate an existing Listing-2 JSON file")
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fatalf("%v", err)
		}
		cfg, err := topology.ParseConfig(data)
		if err != nil {
			fatalf("%v", err)
		}
		emitf("%s: valid MR-MTP configuration (%d leaves, %d top spines, %d pods)\n",
			*validate, len(cfg.Topology.Leaves), len(cfg.Topology.TopSpines), len(cfg.Topology.Pods))
		return
	}

	spec := topology.Spec{
		Pods:            *pods,
		LeavesPerPod:    *leaves,
		SpinesPerPod:    *spines,
		UplinksPerSpine: *uplinks,
		ServersPerLeaf:  *servers,
	}
	topo, err := topology.Build(spec)
	if err != nil {
		fatalf("%v", err)
	}
	if *summary {
		emitf("fabric: %d PoDs, %d routers (%d leaves, %d pod spines, %d top spines), %d servers, %d links\n",
			spec.Pods, len(topo.Routers()), len(topo.Leaves), len(topo.Spines), len(topo.Tops),
			len(topo.Servers), len(topo.Links))
		for _, leaf := range topo.Leaves {
			emitf("  %s: VID %d, subnet %s, ASN %d\n", leaf.Name, leaf.VID, leaf.ServerSubnet, leaf.ASN)
		}
		return
	}
	blob, err := topo.MRMTPConfig().Render()
	if err != nil {
		fatalf("%v", err)
	}
	emitf("%s\n", string(blob))
}

func fatalf(format string, args ...any) {
	_, _ = fmt.Fprintf(os.Stderr, "topogen: "+format+"\n", args...) // best effort: exiting anyway
	os.Exit(1)
}

// emitf writes the generated artifact to stdout and dies if the write fails:
// topogen's JSON is meant to be redirected to a config file, so a short
// write must not exit zero.
func emitf(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		fatalf("writing output: %v", err)
	}
}
