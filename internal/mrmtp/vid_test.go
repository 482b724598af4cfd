package mrmtp

import (
	"testing"
	"testing/quick"
)

func TestVIDParseString(t *testing.T) {
	cases := []string{"11", "11.1", "11.2.2", "255.1.255"}
	for _, s := range cases {
		v, err := ParseVID(s)
		if err != nil {
			t.Fatalf("ParseVID(%q): %v", s, err)
		}
		if v.String() != s {
			t.Errorf("round trip %q -> %q", s, v.String())
		}
	}
}

func TestVIDParseErrors(t *testing.T) {
	for _, s := range []string{"", "11.", ".11", "256", "11.x", "11..2"} {
		if _, err := ParseVID(s); err == nil {
			t.Errorf("ParseVID(%q) succeeded, want error", s)
		}
	}
}

func TestVIDRoundTripProperty(t *testing.T) {
	f := func(elems []byte) bool {
		if len(elems) == 0 {
			elems = []byte{11}
		}
		if len(elems) > 8 {
			elems = elems[:8]
		}
		v := VID(elems)
		w, err := ParseVID(v.String())
		return err == nil && w.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVIDExtend(t *testing.T) {
	// Fig. 2: ToR VID 11 offers 11.1 on port 1; S1_1's 11.1 becomes
	// 11.1.2 on its port 2.
	root := VID{11}
	child := root.Extend(1)
	if child.String() != "11.1" {
		t.Errorf("Extend = %s, want 11.1", child)
	}
	grand := child.Extend(2)
	if grand.String() != "11.1.2" {
		t.Errorf("Extend = %s, want 11.1.2", grand)
	}
	if grand.Root() != 11 {
		t.Errorf("Root = %d, want 11", grand.Root())
	}
	// Extend must not alias the parent.
	if child.String() != "11.1" {
		t.Error("Extend mutated the parent VID")
	}
}

func TestVIDExtendNoAliasing(t *testing.T) {
	// Two children of the same parent must not share memory.
	parent := VID{11, 1}
	a := parent.Extend(1)
	b := parent.Extend(2)
	if a.String() != "11.1.1" || b.String() != "11.1.2" {
		t.Errorf("children corrupted: %s %s", a, b)
	}
}

func TestVIDHasPrefix(t *testing.T) {
	v := VID{11, 1, 2}
	if !v.HasPrefix(VID{11}) || !v.HasPrefix(VID{11, 1}) || !v.HasPrefix(v) {
		t.Error("HasPrefix rejects true ancestors")
	}
	if v.HasPrefix(VID{12}) || v.HasPrefix(VID{11, 2}) || v.HasPrefix(VID{11, 1, 2, 3}) {
		t.Error("HasPrefix accepts non-ancestors")
	}
}
