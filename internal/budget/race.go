//go:build race

package budget

// Race reports that the build is instrumented by the race detector, which
// turns off compiler optimizations and the tiny-object allocator some budgets
// were measured with.
const Race = true
