//go:build !invariants

package framepool

// Release builds carry no per-buffer bookkeeping: the tracking hooks are
// empty and inline away, and Handle/Check shrink to no-ops so call sites
// can stay unconditional behind an invariant.Enabled guard.

type debugState struct{}

func newDebugState() *debugState { return nil }

func (p *Pool) trackGet(b []byte)   {}
func (p *Pool) trackPut(b []byte)   {}
func (p *Pool) trackStock(b []byte) {}

// Handle is a no-op staleness token in release builds.
type Handle struct{}

// Handle returns the zero token; generation tracking needs -tags invariants.
func (p *Pool) Handle(b []byte) Handle { return Handle{} }

// Check is a no-op in release builds.
func (p *Pool) Check(h Handle) {}
