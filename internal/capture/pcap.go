package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// This file writes captures in the classic libpcap format so simulated
// traffic can be opened in Wireshark — the tool the paper's authors used
// for Figs. 9 and 10. Virtual time maps directly onto the pcap timestamp.

const (
	pcapMagic        = 0xa1b2c3d4
	pcapVersionMajor = 2
	pcapVersionMinor = 4
	// LINKTYPE_ETHERNET
	pcapLinkType = 1
	pcapSnapLen  = 65535
)

// Count returns the number of captured frames.
func (c *Capture) Count() int { return len(c.Frames) }

// WritePCAP writes the captured frames as a libpcap file.
func (c *Capture) WritePCAP(w io.Writer) error {
	hdr := make([]byte, 24)
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], pcapMagic)
	le.PutUint16(hdr[4:], pcapVersionMajor)
	le.PutUint16(hdr[6:], pcapVersionMinor)
	// thiszone, sigfigs zero.
	le.PutUint32(hdr[16:], pcapSnapLen)
	le.PutUint32(hdr[20:], pcapLinkType)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, 16)
	for _, f := range c.Frames {
		le.PutUint32(rec[0:], uint32(f.At/time.Second))
		le.PutUint32(rec[4:], uint32(f.At%time.Second/time.Microsecond))
		le.PutUint32(rec[8:], uint32(len(f.Raw)))
		le.PutUint32(rec[12:], uint32(len(f.Raw)))
		if _, err := w.Write(rec); err != nil {
			return err
		}
		if _, err := w.Write(f.Raw); err != nil {
			return err
		}
	}
	return nil
}

// PCAPFrame is a frame read back from a pcap stream.
type PCAPFrame struct {
	At  time.Duration
	Raw []byte
}

// ErrBadPCAP reports an unreadable pcap stream.
var ErrBadPCAP = errors.New("capture: malformed pcap")

// ReadPCAP parses a libpcap stream written by WritePCAP (little-endian,
// Ethernet link type). It exists so tests — and users without Wireshark —
// can round-trip captures.
func ReadPCAP(rd io.Reader) ([]PCAPFrame, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(rd, hdr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPCAP, err)
	}
	le := binary.LittleEndian
	if le.Uint32(hdr[0:]) != pcapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadPCAP)
	}
	if le.Uint32(hdr[20:]) != pcapLinkType {
		return nil, fmt.Errorf("%w: not an Ethernet capture", ErrBadPCAP)
	}
	var out []PCAPFrame
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(rd, rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("%w: truncated record header", ErrBadPCAP)
		}
		incl := le.Uint32(rec[8:])
		if incl > pcapSnapLen {
			return nil, fmt.Errorf("%w: oversized record", ErrBadPCAP)
		}
		raw := make([]byte, incl)
		if _, err := io.ReadFull(rd, raw); err != nil {
			return nil, fmt.Errorf("%w: truncated record", ErrBadPCAP)
		}
		at := time.Duration(le.Uint32(rec[0:]))*time.Second +
			time.Duration(le.Uint32(rec[4:]))*time.Microsecond
		out = append(out, PCAPFrame{At: at, Raw: raw})
	}
}
