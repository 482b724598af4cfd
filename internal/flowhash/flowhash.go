// Package flowhash provides the 5-tuple flow hash shared by ECMP (in the
// BGP data plane) and MR-MTP's uplink load balancing. Both protocols in the
// paper hash flows across equal-cost uplinks; using one function keeps the
// comparison fair and lets the experiment harness steer a probe flow across
// the monitored failure column for either protocol.
package flowhash

import "repro/internal/netaddr"

// Key is the flow 5-tuple.
type Key struct {
	Src, Dst         netaddr.IPv4
	Proto            byte
	SrcPort, DstPort uint16
}

// FNV-1a's 32-bit parameters.
const (
	offset = 2166136261
	prime  = 16777619
)

// Partial is the hash's state after a key's addresses and protocol: what
// every flow between two hosts shares, so that a caller hashing many of
// them feeds those nine bytes once (Key.Prefix) and each flow's ports after
// (Finish).
type Partial uint32

// Prefix returns the FNV-1a state after the key's source and destination
// addresses and protocol. The receiver is a pointer so that Hash, which
// calls it on its own copy of the key, does not copy the key again: the
// overlapping moves of that second copy cost Hash a fifth of its time.
func (k *Key) Prefix() Partial {
	h := uint32(offset)
	for _, b := range k.Src {
		h = (h ^ uint32(b)) * prime
	}
	for _, b := range k.Dst {
		h = (h ^ uint32(b)) * prime
	}
	return Partial((h ^ uint32(k.Proto)) * prime)
}

// Finish feeds the transport ports to the state and finishes it: the hash
// of the key that p is the prefix of, with these ports.
func (p Partial) Finish(srcPort, dstPort uint16) uint32 {
	h := uint32(p)
	h = (h ^ uint32(srcPort>>8)) * prime
	h = (h ^ uint32(srcPort&0xff)) * prime
	h = (h ^ uint32(dstPort>>8)) * prime
	h = (h ^ uint32(dstPort&0xff)) * prime
	// fmix32 finalizer (MurmurHash3).
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// Hash computes an FNV-1a hash of the key, finished with an avalanche
// mixer. The finalizer matters: raw FNV's low bit is the XOR of the input
// bytes' parities (odd-multiplier arithmetic preserves parity), so flows
// whose source and destination ports move together would all hash to the
// same uplink — hardware ECMP hashes (CRC, Toeplitz) avalanche for the
// same reason.
func (k Key) Hash() uint32 { return k.Prefix().Finish(k.SrcPort, k.DstPort) }

// FromIPPacket extracts the key from a wire-format IPv4 packet. Transport
// ports are read for TCP and UDP; other protocols hash on addresses only.
func FromIPPacket(wire []byte) Key {
	var k Key
	if len(wire) < 20 {
		return k
	}
	copy(k.Src[:], wire[12:16])
	copy(k.Dst[:], wire[16:20])
	k.Proto = wire[9]
	ihl := int(wire[0]&0x0f) * 4
	if (k.Proto == 6 || k.Proto == 17) && len(wire) >= ihl+4 {
		k.SrcPort = uint16(wire[ihl])<<8 | uint16(wire[ihl+1])
		k.DstPort = uint16(wire[ihl+2])<<8 | uint16(wire[ihl+3])
	}
	return k
}
