// Package netaddr provides the MAC and IPv4 address types shared by every
// protocol stack in the repository. It is a small, allocation-free subset of
// what net/netip offers, tailored to the simulator: addresses are comparable
// array values so they can key maps.
package netaddr

import "fmt"

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones MAC address. MR-MTP uses it as the destination
// of every frame (links are point-to-point, so no ARP is needed).
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff} //simlint:shared effectively const; a [6]byte value nothing writes

// String renders the address in the canonical aa:bb:cc:dd:ee:ff form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the all-ones broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IPv4 is a 32-bit IP address stored in network byte order.
type IPv4 [4]byte

// IPv4Zero is the unspecified address 0.0.0.0.
var IPv4Zero IPv4 //simlint:shared effectively const; the zero [4]byte value nothing writes

// MakeIPv4 assembles an address from its four dotted-quad octets.
func MakeIPv4(a, b, c, d byte) IPv4 { return IPv4{a, b, c, d} }

// IPv4FromUint32 converts a host-order uint32 into an address.
func IPv4FromUint32(v uint32) IPv4 {
	return IPv4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Uint32 returns the address as a host-order uint32.
func (ip IPv4) Uint32() uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// String renders the dotted-quad form.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// IsZero reports whether ip is the unspecified address.
func (ip IPv4) IsZero() bool { return ip == IPv4Zero }

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	IP   IPv4 // network address (low bits zero)
	Bits int  // prefix length, 0..32
}

// MakePrefix builds a prefix, masking ip down to its network address.
func MakePrefix(ip IPv4, bits int) Prefix {
	return Prefix{IP: IPv4FromUint32(ip.Uint32() & maskFor(bits)), Bits: bits}
}

func maskFor(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - bits)
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IPv4) bool {
	return ip.Uint32()&maskFor(p.Bits) == p.IP.Uint32()
}

// String renders the a.b.c.d/len form.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.IP, p.Bits) }

// Host returns the n-th host address inside the prefix (n=1 is the first
// usable address). It panics if n does not fit in the host part; topology
// construction is static, so a bad call is a programming error.
func (p Prefix) Host(n uint32) IPv4 {
	host := ^maskFor(p.Bits)
	if n > host {
		panic(fmt.Sprintf("netaddr: host %d out of range for %s", n, p))
	}
	return IPv4FromUint32(p.IP.Uint32() | n)
}
