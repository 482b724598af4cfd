package mrmtp

import "repro/internal/invariant"

// checkVIDTable validates the VID table after a mutation batch (offer
// installation, neighbor loss, staged UPDATEs). The router's own callers
// guard with invariant.Enabled. The invariants:
//
//   - every row is filed under its VID's own root, and no VID is held
//     twice;
//   - size equals the number of rows;
//   - every row's port has a live (adjUp) adjacency: frames are only
//     processed on up adjacencies, and neighborDown must purge the port's
//     rows before it returns.
func (r *Router) checkVIDTable() {
	total := 0
	for root, rows := range r.table {
		for i, e := range rows {
			invariant.Assertf(int(e.vid.Root()) == root,
				"mrmtp %s: VID %s filed under root %d", r.Node.Name, e.vid, root)
			for _, earlier := range rows[:i] {
				invariant.Assertf(!earlier.vid.Equal(e.vid),
					"mrmtp %s: VID %s held twice", r.Node.Name, e.vid)
			}
			adj := r.adj(e.port)
			invariant.Assertf(adj != nil && adj.state == adjUp,
				"mrmtp %s: VID %s held via port %d, which has no live adjacency",
				r.Node.Name, e.vid, e.port)
		}
		total += len(rows)
	}
	invariant.Assertf(total == r.size,
		"mrmtp %s: table holds %d rows, size says %d", r.Node.Name, total, r.size)
}
