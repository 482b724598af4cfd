package mrmtp

import (
	"fmt"
	"strings"
)

// RenderNeighbors prints the per-port adjacency table — the MR-MTP
// equivalent of `show ip bgp summary`, with Quick-to-Detect state instead
// of an FSM column.
func (r *Router) RenderNeighbors() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-8s %-6s %-10s %-10s\n", "port", "state", "tier", "lastRx", "lastTx")
	for _, adj := range r.adjs {
		tier := "?"
		if adj.neighborTier > 0 {
			tier = fmt.Sprint(adj.neighborTier)
		}
		p := adj.port.Index
		fmt.Fprintf(&b, "eth%-3d %-8s %-6s %-10v %-10v\n",
			p, r.NeighborState(p), tier, adj.lastRx, adj.lastTx)
	}
	return b.String()
}

// RenderUnreachable prints the per-port avoid list: the records the paper
// describes as "a certain port cannot be used for traffic destined to
// VID 11" (§VII.B). Empty in a healthy fabric.
func (r *Router) RenderUnreachable() string {
	var b strings.Builder
	for _, adj := range r.adjs {
		roots := adj.unreachable.appendTo(nil)
		if len(roots) == 0 {
			continue
		}
		parts := make([]string, len(roots))
		for i, root := range roots {
			parts[i] = fmt.Sprint(root)
		}
		fmt.Fprintf(&b, "eth%d\tcannot reach VIDs %s\n", adj.port.Index, strings.Join(parts, ", "))
	}
	if b.Len() == 0 {
		return "no unreachable VIDs recorded\n"
	}
	return b.String()
}

// Summary returns a one-line state digest for dashboards and tests.
func (r *Router) Summary() string {
	up := 0
	for _, adj := range r.adjs {
		if adj.state == adjUp {
			up++
		}
	}
	role := fmt.Sprintf("tier-%d spine", r.Cfg.Tier)
	if r.Cfg.Tier == 1 {
		role = fmt.Sprintf("ToR VID %d (%s)", r.rootVID, r.Cfg.RackSubnet)
	}
	return fmt.Sprintf("%s: %s, %d VIDs, %d/%d neighbors up",
		r.Node.Name, role, r.size, up, len(r.adjs))
}
