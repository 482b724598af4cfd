//go:build race

package workload

// raceEnabled tells allocation budgets that the build is instrumented: the
// race detector turns off compiler optimizations they were measured with.
const raceEnabled = true
