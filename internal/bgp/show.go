package bgp

import (
	"fmt"
	"sort"
	"strings"
)

// RenderSummary prints the speaker's session table in the style of FRR's
// `show ip bgp summary`, the operational view the paper's authors used to
// verify their testbed configuration.
func (s *Speaker) RenderSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BGP router identifier %s, local AS number %d\n", s.Cfg.RouterID, s.Cfg.ASN)
	fmt.Fprintf(&b, "%-16s %8s %12s %10s %10s %10s\n",
		"Neighbor", "AS", "State", "MsgRcvd", "MsgSent", "PfxRcd")
	peers := append([]*Peer(nil), s.peers...)
	sort.Slice(peers, func(i, j int) bool {
		return peers[i].Neighbor.Uint32() < peers[j].Neighbor.Uint32()
	})
	for _, p := range peers {
		pfx := 0
		for _, rt := range s.rows {
			if rt.path(p.idx) != nil {
				pfx++
			}
		}
		fmt.Fprintf(&b, "%-16s %8d %12s %10d %10d %10d\n",
			p.Neighbor, p.RemoteAS, p.State, p.MsgRecv, p.MsgSent, pfx)
	}
	fmt.Fprintf(&b, "\nTotal number of neighbors %d, established %d\n",
		len(peers), s.EstablishedCount())
	return b.String()
}

// RenderRIB prints the Adj-RIB-In in the style of `show ip bgp`: every
// known path per prefix, best-first.
func (s *Speaker) RenderRIB() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-16s %s\n", "Network", "Next Hop", "Path")
	for _, rt := range s.rows {
		type row struct {
			nh   string
			path string
			plen int
		}
		var rows []row
		for i, path := range rt.paths {
			if path == nil {
				continue
			}
			parts := make([]string, len(path))
			for j, as := range path {
				parts[j] = fmt.Sprint(as)
			}
			rows = append(rows, row{s.peers[i].Neighbor.String(), strings.Join(parts, " "), len(path)})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].plen != rows[j].plen {
				return rows[i].plen < rows[j].plen
			}
			return rows[i].nh < rows[j].nh
		})
		name := rt.prefix.String()
		for _, r := range rows {
			fmt.Fprintf(&b, "%-20s %-16s %s\n", name, r.nh, r.path)
			name = "" // only the first path repeats the prefix, like FRR
		}
	}
	return b.String()
}
