package netaddr

import (
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0x6a, 0x4a, 0xd1, 0x8d, 0xcd, 0x8b}
	if got, want := m.String(), "6a:4a:d1:8d:cd:8b"; got != want {
		t.Errorf("MAC.String() = %q, want %q", got, want)
	}
}

func TestBroadcast(t *testing.T) {
	if !Broadcast.IsBroadcast() {
		t.Error("Broadcast.IsBroadcast() = false")
	}
	if (MAC{}).IsBroadcast() {
		t.Error("zero MAC reported as broadcast")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return IPv4FromUint32(v).Uint32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MakePrefix(MakeIPv4(192, 168, 11, 0), 24)
	cases := []struct {
		ip   IPv4
		want bool
	}{
		{MakeIPv4(192, 168, 11, 1), true},
		{MakeIPv4(192, 168, 11, 255), true},
		{MakeIPv4(192, 168, 12, 1), false},
		{MakeIPv4(10, 0, 0, 1), false},
	}
	for _, c := range cases {
		if got := p.Contains(c.ip); got != c.want {
			t.Errorf("%s.Contains(%s) = %v, want %v", p, c.ip, got, c.want)
		}
	}
}

func TestMakePrefixMasks(t *testing.T) {
	p := MakePrefix(MakeIPv4(192, 168, 11, 37), 24)
	if p.IP != MakeIPv4(192, 168, 11, 0) {
		t.Errorf("MakePrefix did not mask host bits: %s", p)
	}
}

func TestPrefixString(t *testing.T) {
	p := MakePrefix(MakeIPv4(172, 16, 0, 0), 31)
	if got, want := p.String(), "172.16.0.0/31"; got != want {
		t.Errorf("Prefix.String() = %q, want %q", got, want)
	}
}

func TestPrefixHost(t *testing.T) {
	p := MakePrefix(MakeIPv4(192, 168, 14, 0), 24)
	if got, want := p.Host(1), MakeIPv4(192, 168, 14, 1); got != want {
		t.Errorf("Host(1) = %s, want %s", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Host(256) on /24 did not panic")
		}
	}()
	p.Host(256)
}

func TestPrefixContainsMasksQuery(t *testing.T) {
	// Contains must compare the query under the prefix mask, not literally.
	f := func(v uint32, bits uint8) bool {
		b := int(bits % 33)
		p := MakePrefix(IPv4FromUint32(v), b)
		return p.Contains(IPv4FromUint32(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
