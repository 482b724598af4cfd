// Package bad seeds known findings for the simlint driver tests: one
// walltime violation and one bare justification marker (a justify finding,
// and an unusedmarker one since it suppresses nothing), so the exit-status
// and output-schema tests know exactly what to expect.
package bad

import "time"

// Stamp reads the wall clock: a walltime finding on the time.Now line, and
// the justify and unusedmarker findings on the bare marker below it.
func Stamp() time.Time {
	t := time.Now()
	//simlint:deterministic
	return t
}
