package ipv4

import (
	"math/rand"
	"testing"
)

// refChecksum is the textbook RFC 1071 loop the word-wide kernel replaced —
// 16 bits at a time into a uint32 — kept here as the differential oracle.
// seed is the pseudo-header contribution (at most six 16-bit words).
func refChecksum(seed uint32, b []byte) uint16 {
	sum := seed
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// pseudoSeeds are pseudo-header sums worth pinning: none, a typical
// 192.168/16 pair, and the largest six words can reach.
var pseudoSeeds = []uint32{0, 0xc0a8 + 0x0b01 + 0xc0a8 + 0x0e01 + 17 + 1008, 6 * 0xffff}

func checkAgainstRef(t *testing.T, what string, b []byte) {
	t.Helper()
	for _, seed := range pseudoSeeds {
		if got, want := ChecksumSeeded(uint64(seed), b), refChecksum(seed, b); got != want {
			t.Fatalf("%s len %d seed %#x: kernel %#04x, 16-bit loop %#04x", what, len(b), seed, got, want)
		}
	}
	if got, want := Checksum(b), refChecksum(0, b); got != want {
		t.Fatalf("%s len %d: Checksum %#04x, 16-bit loop %#04x", what, len(b), got, want)
	}
}

// TestChecksumMatchesReferenceLoop sweeps every length 0–2049 (all tail
// shapes of the 32/8/2/1-byte steps, odd and even) over the fills that
// stress carries: zeros (the one input whose sum is +0), all-0xff (every
// addition carries), 0xff00/0x00ff alternations, and seeded random bytes.
func TestChecksumMatchesReferenceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fills := []struct {
		name string
		at   func(i int) byte
	}{
		{"zero", func(int) byte { return 0 }},
		{"all-ff", func(int) byte { return 0xff }},
		{"ff00", func(i int) byte { return byte(0xff * (1 - i&1)) }},
		{"00ff", func(i int) byte { return byte(0xff * (i & 1)) }},
		{"random", func(int) byte { return byte(rng.Intn(256)) }},
	}
	buf := make([]byte, 2049)
	for _, f := range fills {
		for i := range buf {
			buf[i] = f.at(i)
		}
		for n := 0; n <= len(buf); n++ {
			checkAgainstRef(t, f.name, buf[:n])
		}
		// Unaligned starts: the kernel must not care where the slice begins.
		for off := 1; off < 8; off++ {
			checkAgainstRef(t, f.name+"+off", buf[off:off+1001])
		}
	}
}

func FuzzChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(make([]byte, 20))
	all := make([]byte, 1009)
	for i := range all {
		all[i] = 0xff
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstRef(t, "fuzz", data)
	})
}

func BenchmarkChecksum1000(b *testing.B) {
	buf := make([]byte, 1008) // a workload datagram: UDP header + 1000 bytes
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		_ = ChecksumSeeded(12345, buf)
	}
}
