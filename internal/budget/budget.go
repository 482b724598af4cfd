// Package budget measures what a call costs the heap. The allocation budgets
// that hold the hot-path contract (DESIGN.md §9) are tests built on PerRun;
// the layout tests of the pointer-free slabs are built on HoldsPointer.
package budget

import (
	"reflect"
	"runtime"
)

// PerRun is testing.AllocsPerRun that reads bytes as well as objects: it
// calls f once to warm up, then runs times, and returns the heap objects and
// the bytes those runs allocated, each divided by runs with the remainder
// dropped. The bytes are what make an amortized append visible: a slice that
// grows every so many calls reads 0 objects per run, but the doublings copy
// the slice each time, so it costs bytes on every run on average.
//
// It collects once before the warm-up: the process's first collection
// allocates the collector's worker goroutines on the heap, and a run that
// happened to trigger it would read them.
func PerRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	f()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	mallocs, total := m.Mallocs, m.TotalAlloc
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m)
	return (m.Mallocs - mallocs) / uint64(runs), (m.TotalAlloc - total) / uint64(runs)
}

// HoldsPointer reports whether a value of type t holds a pointer the
// collector must scan. A slab of a type that holds none is allocated in
// memory the collector never reads.
func HoldsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && HoldsPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if HoldsPointer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
