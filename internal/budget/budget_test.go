package budget

import (
	"reflect"
	"testing"
)

// TestBytesSeeAmortizedAppend is why the budgets read bytes: a closure that
// appends to a captured slice grows it only now and then, so AllocsPerRun's
// whole objects per run round it to 0, while the bytes of the doublings do
// not round away.
func TestBytesSeeAmortizedAppend(t *testing.T) {
	var sink []int
	grow := func() { sink = append(sink, len(sink)) }
	if avg := testing.AllocsPerRun(200, grow); avg != 0 {
		t.Fatalf("AllocsPerRun reads %.0f objects/op, want 0: the append is no longer amortized", avg)
	}
	sink = nil
	if allocs, bytes := PerRun(200, grow); allocs != 0 || bytes == 0 {
		t.Errorf("PerRun reads %d objects/op and %d B/op, want 0 and more than 0", allocs, bytes)
	}
}

// TestPerRunCountsOneObject: one object per run reads as one, at the size
// class it occupies, and a call that allocates nothing reads 0 and 0.
func TestPerRunCountsOneObject(t *testing.T) {
	var keep []byte
	if allocs, bytes := PerRun(100, func() { keep = make([]byte, 100) }); allocs != 1 || bytes != 112 {
		t.Errorf("a 100-byte make reads %d objects/op and %d B/op, want 1 and 112 (its size class)", allocs, bytes)
	}
	n := 0
	if allocs, bytes := PerRun(100, func() { n += len(keep) }); allocs != 0 || bytes != 0 {
		t.Errorf("an addition reads %d objects/op and %d B/op, want 0 and 0", allocs, bytes)
	}
}

// TestHoldsPointer: a struct of numbers and arrays of them holds none; a
// string, slice, map or pointer anywhere inside one does.
func TestHoldsPointer(t *testing.T) {
	type flat struct {
		a int64
		b [4]uint32
		c struct{ d float64 }
	}
	type nested struct {
		flat
		s [1]string
	}
	for _, c := range []struct {
		v    any
		want bool
	}{
		{flat{}, false}, {[0]*int{}, false}, {nested{}, true}, {[]int{}, true},
		{map[int]int{}, true}, {new(int), true}, {struct{ f func() }{}, true},
	} {
		if got := HoldsPointer(reflect.TypeOf(c.v)); got != c.want {
			t.Errorf("HoldsPointer(%T) = %v, want %v", c.v, got, c.want)
		}
	}
}
