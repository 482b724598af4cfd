// Fixture for the framealias analyzer: buffers handed to
// (*simnet.Port).Send must not be retained elsewhere nor written after the
// handoff. Copies, pre-handoff writes, and justified sites pass.
package a

import (
	"repro/internal/simnet"
	"repro/internal/simnet/framepool"
)

type state struct {
	last    []byte
	pending [][]byte
	byDst   map[int][]byte
}

type hdr struct{}

func (hdr) PutHeader(b []byte) { _ = b }

func mutateAfter(p *simnet.Port, buf []byte) {
	p.Send(buf)
	buf[0] = 1 // want `frame buf is mutated after being handed to simnet`
}

func retainField(s *state, p *simnet.Port, buf []byte) {
	s.last = buf // want `frame buf is handed to simnet but retained in s\.last`
	p.Send(buf)
}

func retainMap(s *state, p *simnet.Port, buf []byte) {
	p.Send(buf)
	s.byDst[7] = buf // want `frame buf is handed to simnet but retained in s\.byDst\[7\]`
}

func retainAppend(s *state, p *simnet.Port, buf []byte) {
	s.pending = append(s.pending, buf) // want `frame buf is handed to simnet but appended into s\.pending`
	p.Send(buf)
}

func aliasThroughReslice(p *simnet.Port, buf []byte) {
	tail := buf[2:]
	p.Send(tail)
	buf[0] = 1 // want `frame buf is mutated after being handed to simnet`
}

func copyAfter(p *simnet.Port, buf, next []byte) {
	p.Send(buf)
	copy(buf, next) // want `frame buf is overwritten by copy after being handed to simnet`
}

func appendReuse(p *simnet.Port, buf []byte) {
	p.Send(buf)
	buf = append(buf, 0) // want `frame buf is reused by append after being handed to simnet`
	_ = buf
}

func marshalAfter(p *simnet.Port, buf []byte) {
	var h hdr
	p.Send(buf)
	h.PutHeader(buf) // want `frame buf is rewritten by PutHeader after being handed to simnet`
}

// releaseAfter recycles a buffer the network still holds: the arena would
// hand its bytes to the next Get while the delivery event is in flight.
func releaseAfter(p *simnet.Port, frames *framepool.Pool, buf []byte) {
	p.Send(buf)
	frames.Put(buf) // want `frame buf is rewritten by Put after being handed to simnet`
}

// resendInPlace is in-place transit: a handler owns the frame delivered to
// it, so it may rewrite a header field through a payload alias and send the
// same buffer on — after which the buffer is the network's again.
func resendInPlace(p *simnet.Port, raw []byte) {
	payload := raw[14:]
	payload[1]--
	p.Send(raw)
	payload[1] = 0 // want `frame payload is mutated after being handed to simnet`
}

// sendCopy is the blessed pattern: the handed-off buffer is a fresh copy,
// so the original stays ours.
func sendCopy(p *simnet.Port, buf []byte) {
	p.Send(append([]byte(nil), buf...))
	buf[0] = 1
}

// writeThenSend composes the frame first — ownership transfers at Send, not
// before.
func writeThenSend(p *simnet.Port, buf []byte) {
	var h hdr
	h.PutHeader(buf)
	buf[0] = 5
	p.Send(buf)
}

func justified(s *state, p *simnet.Port, buf []byte) {
	//simlint:frameown queued and sent on exclusive branches; ownership moves with the branch
	s.last = buf
	p.Send(buf)
	//simlint:frameown
	buf[0] = 1 // want `simlint:frameown requires a written justification`
}
