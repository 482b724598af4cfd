//go:build invariants

package bgp

import "testing"

// TestDecisionReentryAsserts: the decision scratch has one user at a time.
// A second taker while the first still holds it — a future synchronous send
// path calling back into handleUpdate or peerDown from inside decide — must
// panic under -tags invariants instead of silently sharing the slices.
func TestDecisionReentryAsserts(t *testing.T) {
	sp := newTestNet().router("r", 64512).sp
	sp.takeDirty()
	defer func() {
		if recover() == nil {
			t.Error("peerDown inside an open decision pass did not trip the assertion")
		}
	}()
	sp.peerDown(&Peer{})
}
