//go:build invariants

package mrmtp

import (
	"testing"

	"repro/internal/simnet"
)

func tableRouter() *Router {
	return &Router{
		Node:  &simnet.Node{Name: "test"},
		table: [][]vidEntry{11: {{vid: VID{11, 1}, port: 1}}},
		size:  1,
		adjs:  []*adjacency{{state: adjUp}},
	}
}

func wantTablePanic(t *testing.T, r *Router) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("inconsistent VID table passed the invariant check")
		}
	}()
	r.checkVIDTable()
}

// TestVIDTableCheckDetectsCorruption breaks each guarded property in turn.
func TestVIDTableCheckDetectsCorruption(t *testing.T) {
	tableRouter().checkVIDTable() // sanity: a consistent table passes

	r := tableRouter()
	r.table[11][0].vid = VID{12, 1} // row filed under another root
	wantTablePanic(t, r)

	r = tableRouter()
	r.table[11] = append(r.table[11], r.table[11][0]) // VID held twice
	r.size++
	wantTablePanic(t, r)

	r = tableRouter()
	r.size++ // size counts a row the table lost
	wantTablePanic(t, r)

	r = tableRouter()
	r.adjs[0].state = adjFailed // row held via a dead port
	wantTablePanic(t, r)

	r = tableRouter()
	r.table[11][0].port = 2 // row held via a port with no adjacency
	wantTablePanic(t, r)
}
