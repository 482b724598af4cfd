// Package mrmtp implements the paper's contribution: the Multi-Root Meshed
// Tree Protocol for folded-Clos data center networks.
//
// Every Top-of-Rack switch roots a tree named by a Virtual ID derived from
// its rack subnet (192.168.11.0/24 → VID 11). Upstream devices join the
// tree and are assigned the parent's VID with the acquisition port number
// appended (11 → 11.1 → 11.1.2), so a VID *is* a loop-free path back to the
// root, and a table of (VID, acquisition port) pairs is the entire routing
// state. One layer-3 protocol replaces BGP, ECMP, BFD, TCP, UDP and IP
// inside the fabric (paper Fig. 1): messages ride raw Ethernet frames with
// ethertype 0x8850 addressed to the broadcast MAC (no ARP on point-to-point
// links), reliability is built into the join handshake
// (request-offer-accept-acknowledge), liveness is a 1-byte keep-alive, and
// failures are handled Quick-to-Detect (one missed hello) and
// Slow-to-Accept (three consecutive hellos to rejoin).
package mrmtp

import (
	"fmt"
	"strconv"
	"strings"
)

// VID is a Virtual ID: the root ToR's identifier followed by the port
// numbers along the tree path ("11.1.2"). Each element fits a byte: roots
// are the third octet of a /24 rack subnet and fabric devices have far
// fewer than 255 ports.
type VID []byte

// ParseVID parses the dotted form ("11.1.2").
func ParseVID(s string) (VID, error) {
	parts := strings.Split(s, ".")
	v := make(VID, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return nil, fmt.Errorf("mrmtp: malformed VID %q", s)
		}
		v = append(v, byte(n))
	}
	if len(v) == 0 {
		return nil, fmt.Errorf("mrmtp: empty VID")
	}
	return v, nil
}

// String renders the dotted form.
func (v VID) String() string {
	var b strings.Builder
	for i, e := range v {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(int(e)))
	}
	return b.String()
}

// Root returns the tree root (the originating ToR's VID).
func (v VID) Root() byte {
	if len(v) == 0 {
		return 0
	}
	return v[0]
}

// Extend derives a child VID by appending a port number, the paper's §III.B
// assignment rule ("appending the port number on which the request arrived
// to its VID").
func (v VID) Extend(port int) VID {
	child := make(VID, len(v)+1)
	copy(child, v)
	child[len(v)] = byte(port)
	return child
}

// Equal reports element-wise equality.
func (v VID) Equal(w VID) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether p is an ancestor of (or equal to) v in the tree.
func (v VID) HasPrefix(p VID) bool {
	if len(p) > len(v) {
		return false
	}
	for i := range p {
		if v[i] != p[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (v VID) Clone() VID { return append(VID(nil), v...) }
