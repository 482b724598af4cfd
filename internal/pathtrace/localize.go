package pathtrace

import (
	"slices"
	"sort"
	"time"
)

// This file is the localization engine. Each sweep receives the coverage
// matrix — every probe cell's rolled-up health plus the directed links its
// probe and reply currently traverse — and accuses the link that the
// anomaly pattern isolates. Isolation is a purity vote: under a sustained
// partial loss the per-cell EWMAs straddle the anomaly threshold, so no
// single clean observation can exonerate a link; instead each link is
// scored by how many anomalous cells blame it against how many currently
// healthy cells cross it, and the top-scored link must hold its lead for
// several consecutive sweeps before it is accused.

// Cell is one row of the coverage matrix: a (prober, TTL) rollup plus the
// directed links its probe covers — the forward hops up to the probed TTL
// and the reply path back from that hop.
type Cell struct {
	HopSnapshot
	// Cover is the set of directed links the cell's probes cross right now:
	// a healthy cell exonerates exactly these, an anomalous one blames every
	// link of its covers over the last coverMemory.
	Cover []DirectedLink
}

// Accusation is one localization verdict.
type Accusation struct {
	At   time.Duration
	Link DirectedLink
	// Cells is how many anomalous cells blamed the link; Ratio is that
	// count over all anomalous cells.
	Cells int
	Ratio float64
	// Latency marks an accusation driven by RTT inflation with little or
	// no loss.
	Latency bool
}

// The accusation thresholds, tuned for the repo's probe cadence (50 ms
// rounds, EWMA alpha 0.25): a sustained one-way gray loss well above
// lossThreshold crosses it within a few rounds, while one-off drops during
// reconvergence stay below it.
const (
	// lossThreshold is the loss EWMA at which a cell turns anomalous.
	lossThreshold = 0.15
	// latencyThreshold is the RTT-P50 inflation over the armed baseline at
	// which a cell turns anomalous.
	latencyThreshold = 10 * time.Millisecond
	// healthyLoss is the loss EWMA at or below which a cell casts a healthy
	// vote for the links it covers.
	healthyLoss = 0.08
	// minSent is the probe count a cell needs before its stats are
	// believed in either direction.
	minSent = 8
	// minCells is the number of distinct anomalous cells that must blame a
	// link before it is accusable.
	minCells = 2
	// minRatio is the fraction of all anomalous cells a link must explain.
	minRatio = 0.5
	// minPurity is the minimum anomalous share of a link's votes,
	// blame/(blame+healthy). A link most of whose crossers are clean is
	// exonerated however much absolute blame it carries; a dip from a few
	// noisy EWMAs is not enough to clear a link every lossy cell accuses.
	minPurity = 0.6
	// persistSweeps is how many consecutive sweeps the same link must top
	// the ranking before it is accused. It absorbs the window where a
	// fresh fault flips formerly healthy cells one sweep at a time.
	persistSweeps = 3
	// coverMemory is how long a link stays in a cell's blame set after its
	// last cover, so a fault that already triggered rerouting is still
	// blamed on the path the lost probes actually took.
	coverMemory = time.Second
)

// cellState is what the localizer keeps per cell: the armed RTT baseline
// and the blame set, each blamed link with the last time a cover held it.
type cellState struct {
	baseline time.Duration
	armed    bool
	links    []DirectedLink
	seen     []time.Duration
}

// remember folds the cell's current cover into its blame set, forgets the
// links no cover has held within coverMemory, and returns the rest.
func (s *cellState) remember(now time.Duration, cover []DirectedLink) []DirectedLink {
	for _, link := range cover {
		if i := slices.Index(s.links, link); i >= 0 {
			s.seen[i] = now
		} else {
			s.links = append(s.links, link)
			s.seen = append(s.seen, now)
		}
	}
	kept := 0
	for i, at := range s.seen {
		if now-at <= coverMemory {
			s.links[kept], s.seen[kept] = s.links[i], at
			kept++
		}
	}
	s.links, s.seen = s.links[:kept], s.seen[:kept]
	return s.links
}

// anomalous classifies a cell against the thresholds.
func (s *cellState) anomalous(c *Cell) (anom, latency bool) {
	if c.Sent < minSent {
		return false, false
	}
	if c.LossEWMA >= lossThreshold {
		return true, false
	}
	if s.armed && c.Seen && c.RTTP50-s.baseline >= latencyThreshold {
		return true, true
	}
	return false, false
}

// Localizer accumulates sweep-to-sweep state: each cell's RTT baseline and
// blame set, the current leader's streak, and links already accused (each
// link is accused at most once until cleared).
type Localizer struct {
	cells      []cellState // by cellKey, grown on demand
	streakLink DirectedLink
	streak     int
	accusedSet map[DirectedLink]bool
}

// NewLocalizer builds a localizer.
func NewLocalizer() *Localizer {
	return &Localizer{accusedSet: make(map[DirectedLink]bool)}
}

// cellKey is a cell's identity: prober and TTL (at most MaxTTL, 5 bits).
func cellKey(c *Cell) int { return c.Prober<<5 | c.TTL }

// state returns the cell's state, growing the table to hold it.
func (l *Localizer) state(c *Cell) *cellState {
	k := cellKey(c)
	if k >= len(l.cells) {
		l.cells = append(l.cells, make([]cellState, k+1-len(l.cells))...)
	}
	return &l.cells[k]
}

// Arm records the healthy baseline — per-cell RTT P50s for the latency
// anomaly test — and remembers each cover. Call it after warm-up, before
// fault injection.
func (l *Localizer) Arm(now time.Duration, cells []Cell) {
	for i := range cells {
		c := &cells[i]
		s := l.state(c)
		s.remember(now, c.Cover)
		if c.Seen {
			s.baseline, s.armed = c.RTTP50, true
		}
	}
}

func (l *Localizer) resetStreak() {
	l.streakLink = DirectedLink{}
	l.streak = 0
}

// Sweep evaluates one coverage-matrix snapshot and returns the newly
// accused link, if the matrix isolates one. Every anomalous cell blames
// its remembered covers; every healthy cell votes for its current cover. A
// link is a candidate when it carries minCells of blame and its purity —
// blame over blame-plus-healthy — clears minPurity. Candidates rank by
// blame desc, then healthy votes asc (purer first), then name; the leader
// must explain minRatio of all anomalous cells and keep its lead for
// persistSweeps consecutive sweeps. Anything short of that — an exact tie
// between the top two, a weak or flapping leader — defers to a later
// sweep rather than risking a false accusal. Cells must arrive in a
// deterministic order; everything else in here is collect-then-sort, so
// the verdict is a pure function of the sweep sequence.
func (l *Localizer) Sweep(now time.Duration, cells []Cell) []Accusation {
	suspicion := make(map[DirectedLink]int)
	healthy := make(map[DirectedLink]int)
	latencyVotes := make(map[DirectedLink]int)
	anomCount := 0
	for i := range cells {
		c := &cells[i]
		s := l.state(c)
		blame := s.remember(now, c.Cover)
		anom, latency := s.anomalous(c)
		if anom {
			anomCount++
			for _, link := range blame {
				suspicion[link]++
				if latency {
					latencyVotes[link]++
				}
			}
			continue
		}
		if c.Sent >= minSent && c.LossEWMA <= healthyLoss {
			for _, link := range c.Cover {
				healthy[link]++
			}
		}
	}
	if anomCount < minCells {
		l.resetStreak()
		return nil
	}

	candidates := make([]DirectedLink, 0, len(suspicion))
	//simlint:deterministic collect-then-sort: candidates are fully ordered below before any use
	for link, n := range suspicion {
		if n < minCells {
			continue
		}
		if purity := float64(n) / float64(n+healthy[link]); purity < minPurity {
			continue
		}
		candidates = append(candidates, link)
	}
	sort.Slice(candidates, func(i, j int) bool {
		si, sj := suspicion[candidates[i]], suspicion[candidates[j]]
		if si != sj {
			return si > sj
		}
		hi, hj := healthy[candidates[i]], healthy[candidates[j]]
		if hi != hj {
			return hi < hj
		}
		return candidates[i].String() < candidates[j].String()
	})
	if len(candidates) == 0 {
		l.resetStreak()
		return nil
	}
	top := candidates[0]
	if len(candidates) > 1 &&
		suspicion[candidates[1]] == suspicion[top] && healthy[candidates[1]] == healthy[top] {
		// The matrix has not isolated a single link yet.
		l.resetStreak()
		return nil
	}
	n := suspicion[top]
	ratio := float64(n) / float64(anomCount)
	if ratio < minRatio {
		l.resetStreak()
		return nil
	}
	if top != l.streakLink {
		l.streakLink, l.streak = top, 1
	} else {
		l.streak++
	}
	if l.streak < persistSweeps {
		return nil
	}
	if l.accusedSet[top] {
		// The dominant explanation is already accused; runner-up links
		// must not inherit its evidence.
		return nil
	}
	a := Accusation{
		At: now, Link: top, Cells: n, Ratio: ratio,
		Latency: latencyVotes[top]*2 > n,
	}
	l.accusedSet[top] = true
	return []Accusation{a}
}
