package metrics

import (
	"bufio"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is the paper's measurement methodology rather than its results.
// On the testbed a bash script stamped the failure instant, print statements
// in the MR-MTP C code (and tshark for BGP) recorded update messages, and
// Python scripts parsed the collected logs into convergence times (§VI.B).
// Render writes a Log's events as those text logs and Parse reads them back,
// so the log-derived Analyze can be held to the in-memory one.

// journalText is what a testbed print statement said for each kind: a line's
// text is prefix, then N in decimal if the kind has one, then suffix.
var journalText = [...]struct {
	prefix, suffix string
	hasN           bool
}{
	KindRoute:   {"routing table updated", "", false},
	KindControl: {"update message sent bytes=", "", true},
	KindFailure: {"interface eth", " down (failure injected)", true},
}

// Render prints events as raw text logs, one line each: "<seconds>.<µs>
// <node> <text>", sorted by time, ties in recording order. Times are
// truncated to the microsecond.
func Render(events []Event) string {
	var b strings.Builder
	for _, e := range byTime(events) {
		t := journalText[e.Kind]
		fmt.Fprintf(&b, "%d.%06d %s %s", e.At/time.Second, e.At%time.Second/time.Microsecond, e.Node, t.prefix)
		if t.hasN {
			b.WriteString(strconv.Itoa(e.N))
		}
		b.WriteString(t.suffix)
		b.WriteByte('\n')
	}
	return b.String()
}

// byTime returns a copy of events sorted by time, ties in recording order.
func byTime(events []Event) []Event {
	sorted := slices.Clone(events)
	sort.SliceStable(sorted, func(i, k int) bool { return sorted[i].At < sorted[k].At })
	return sorted
}

// Parse reads logs rendered by Render back into events (the "download and
// parse" step). Blank lines are skipped; every other line must be one Render
// writes, and the error names the first that is not.
func Parse(text string) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		e, err := parseLine(raw)
		if err != nil {
			return nil, fmt.Errorf("metrics: journal line %d: %v", n, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

func parseLine(raw string) (Event, error) {
	stamp, rest, _ := strings.Cut(raw, " ")
	node, text, found := strings.Cut(rest, " ")
	if !found {
		return Event{}, fmt.Errorf("malformed line %q", raw)
	}
	at, err := parseTimestamp(stamp)
	if err != nil {
		return Event{}, err
	}
	for k, t := range journalText {
		mid, isPrefix := strings.CutPrefix(text, t.prefix)
		mid, isSuffix := strings.CutSuffix(mid, t.suffix)
		n, isNumber := unsigned(mid)
		if isPrefix && isSuffix && (t.hasN && isNumber || !t.hasN && mid == "") {
			return Event{At: at, Node: node, Kind: Kind(k), N: n}, nil
		}
	}
	return Event{}, fmt.Errorf("not an event Render writes: %q", text)
}

// parseTimestamp reads "seconds[.fraction]" exactly, to the microsecond
// (float parsing would lose the precision the convergence numbers depend
// on); digits past the sixth decimal are dropped. No sign is accepted
// anywhere, and no time past the largest time.Duration.
func parseTimestamp(s string) (time.Duration, error) {
	secs, frac, _ := strings.Cut(s, ".")
	sec, ok := unsigned(secs)
	micros, ok2 := unsigned((frac + "000000")[:6])
	at := time.Duration(sec)*time.Second + time.Duration(micros)*time.Microsecond
	if !ok || !ok2 || strings.Trim(frac, "0123456789") != "" ||
		time.Duration(sec) > math.MaxInt64/time.Second || at < 0 {
		return 0, fmt.Errorf("bad timestamp %q", s)
	}
	return at, nil
}

// unsigned reads a non-empty run of ASCII digits (strconv alone would also
// take a sign).
func unsigned(s string) (int, bool) {
	if strings.Trim(s, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}
