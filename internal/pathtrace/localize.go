package pathtrace

import (
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
	// Cover is the set of directed links the cell's probes cross right now;
	// a healthy cell exonerates exactly these.
	Cover []DirectedLink
	// Blame, when non-nil, is the suspicion set an anomalous cell accuses —
	// typically the union of its recent covers, so a fault that already
	// triggered rerouting still blames the path the lost probes actually
	// took. Nil means Cover.
	Blame []DirectedLink
}

// blame returns the suspicion set.
func (c *Cell) blame() []DirectedLink {
	if c.Blame != nil {
		return c.Blame
	}
	return c.Cover
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
)

// Localizer accumulates sweep-to-sweep state: RTT baselines armed before
// the campaign, the current leader's streak, and links already accused
// (each link is accused at most once until cleared).
type Localizer struct {
	baseline   map[int]time.Duration // prober<<5|ttl -> armed RTT P50
	streakLink DirectedLink
	streak     int
	accusedSet map[DirectedLink]bool
}

// NewLocalizer builds a localizer.
func NewLocalizer() *Localizer {
	return &Localizer{
		baseline:   make(map[int]time.Duration),
		accusedSet: make(map[DirectedLink]bool),
	}
}

func cellKey(c *Cell) int { return c.Prober<<5 | c.TTL }

// Arm records the healthy baseline: per-cell RTT P50s for the latency
// anomaly test. Call it after warm-up, before fault injection.
func (l *Localizer) Arm(now time.Duration, cells []Cell) {
	for i := range cells {
		c := &cells[i]
		if c.Seen {
			l.baseline[cellKey(c)] = c.RTTP50
		}
	}
}

// anomalous classifies a cell against the thresholds.
func (l *Localizer) anomalous(c *Cell) (anom, latency bool) {
	if c.Sent < minSent {
		return false, false
	}
	if c.LossEWMA >= lossThreshold {
		return true, false
	}
	if base, ok := l.baseline[cellKey(c)]; ok && c.Seen && c.RTTP50-base >= latencyThreshold {
		return true, true
	}
	return false, false
}

func (l *Localizer) resetStreak() {
	l.streakLink = DirectedLink{}
	l.streak = 0
}

// Sweep evaluates one coverage-matrix snapshot and returns the newly
// accused link, if the matrix isolates one. Every anomalous cell blames
// its suspicion set; every healthy cell votes for its current cover. A
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
		anom, latency := l.anomalous(c)
		if anom {
			anomCount++
			for _, link := range c.blame() {
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
