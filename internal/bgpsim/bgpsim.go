// Package bgpsim simulates the BGP observation substrate of the study
// (Sections 3.6 and 4.6): a Routeviews-style collection of peering
// sessions spread over several collector servers, per-prefix update
// streams generated from injected routing events (withdrawal storms with
// path exploration and delayed convergence), collector session resets that
// pollute the data, the paper's cleaning procedure, and the hourly
// per-prefix aggregates (withdrawal/announcement counts and participating
// neighbor counts) that the correlation analysis consumes.
package bgpsim

import (
	"cmp"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"webfail/internal/simnet"
)

// The paper's collection: 5 Routeviews servers with 73 peering sessions in
// total.
const (
	// NumCollectors is the number of Routeviews servers.
	NumCollectors = 5
	// NumSessions is the total number of peering sessions (neighbors).
	NumSessions = 73
)

// UpdateKind distinguishes BGP announcements from withdrawals.
type UpdateKind uint8

// Update kinds.
const (
	Announce UpdateKind = 1
	Withdraw UpdateKind = 2
)

func (k UpdateKind) String() string {
	if k == Announce {
		return "announce"
	}
	return "withdraw"
}

// Update is one BGP update as heard by one peering session.
type Update struct {
	At     simnet.Time
	Peer   uint8 // session index, 0..NumSessions-1
	Prefix netip.Prefix
	Kind   UpdateKind
}

// Generator produces update streams for a set of monitored prefixes.
type Generator struct {
	rng      *rand.Rand
	prefixes []netip.Prefix

	// BaselineRatePerHour is the expected number of background
	// announcements per prefix per hour from routine path changes;
	// real tables see a trickle even for stable prefixes.
	BaselineRatePerHour float64

	updates []Update
}

// NewGenerator creates a generator for the monitored prefixes.
func NewGenerator(seed int64, prefixes []netip.Prefix) *Generator {
	return &Generator{
		rng:                 rand.New(rand.NewSource(seed)),
		prefixes:            prefixes,
		BaselineRatePerHour: 0.3,
	}
}

// Updates returns all generated updates sorted by time.
func (g *Generator) Updates() []Update {
	slices.SortStableFunc(g.updates, func(x, y Update) int { return cmp.Compare(x.At, y.At) })
	return g.updates
}

// GenerateBaseline emits routine background churn over [start, end): for
// each prefix, Poisson-ish sparse announcements from random single
// neighbors. This is the noise floor that the instability detectors must
// not trigger on.
func (g *Generator) GenerateBaseline(start, end simnet.Time) {
	span := end.Sub(start)
	hours := span.Hours()
	for _, pfx := range g.prefixes {
		n := poisson(g.rng, g.BaselineRatePerHour*hours)
		for i := 0; i < n; i++ {
			at := start.Add(time.Duration(g.rng.Int63n(int64(span))))
			g.updates = append(g.updates, Update{
				At:     at,
				Peer:   uint8(g.rng.Intn(NumSessions)),
				Prefix: pfx,
				Kind:   Announce,
			})
		}
	}
}

// InstabilityEvent describes a routing event for one prefix.
type InstabilityEvent struct {
	Prefix netip.Prefix
	Start  simnet.Time
	// Duration is the outage length before re-convergence.
	Duration time.Duration
	// NeighborFraction is the fraction of the 73 sessions that lose
	// their route (1.0 = global unreachability; a small value models a
	// local problem at a couple of transit providers, as in the
	// paper's Figure 7 example where only 2 neighbors withdrew).
	NeighborFraction float64
	// ExplorationUpdates is the mean number of path-exploration
	// announcements each affected neighbor emits before withdrawing
	// (BGP's slow convergence, per Labovitz et al.).
	ExplorationUpdates float64
}

// InjectInstability emits the update stream of a routing event: each
// affected neighbor explores alternate paths (several announcements over
// the first convergence window), withdraws, and re-announces when the
// event ends.
func (g *Generator) InjectInstability(ev InstabilityEvent) {
	affected := int(float64(NumSessions)*ev.NeighborFraction + 0.5)
	if affected <= 0 {
		return
	}
	if affected > NumSessions {
		affected = NumSessions
	}
	perm := g.rng.Perm(NumSessions)
	// Convergence window: withdrawal storms settle within 30 s – 15 min
	// (Section 4.6, citing delayed-convergence measurements).
	converge := 30*time.Second + time.Duration(g.rng.Int63n(int64(14*time.Minute+30*time.Second)))
	if converge > ev.Duration {
		converge = ev.Duration
	}
	// Some events are "churny": route flapping during convergence makes
	// each neighbor withdraw and re-announce several times (the paper's
	// Figure 5 case saw "multiple announcements and withdrawals ... from
	// each neighbor"). Roughly a third of severe events behave this
	// way, which is what separates the >=75-withdrawal-message
	// definition from the plain neighbor-count one in Section 4.6.
	churny := g.rng.Float64() < 0.35
	for i := 0; i < affected; i++ {
		peer := uint8(perm[i])
		// Path exploration announcements.
		n := poisson(g.rng, ev.ExplorationUpdates)
		for j := 0; j < n; j++ {
			at := ev.Start.Add(time.Duration(g.rng.Int63n(int64(converge) + 1)))
			g.updates = append(g.updates, Update{At: at, Peer: peer, Prefix: ev.Prefix, Kind: Announce})
		}
		// The withdrawal(s) land within the convergence window.
		withdrawals := 1
		if churny {
			withdrawals += 1 + poisson(g.rng, 0.8)
		}
		for j := 0; j < withdrawals; j++ {
			wAt := ev.Start.Add(time.Duration(g.rng.Int63n(int64(converge) + 1)))
			g.updates = append(g.updates, Update{At: wAt, Peer: peer, Prefix: ev.Prefix, Kind: Withdraw})
			if j > 0 {
				// Each flap re-announces before withdrawing again.
				aAt := ev.Start.Add(time.Duration(g.rng.Int63n(int64(converge) + 1)))
				g.updates = append(g.updates, Update{At: aAt, Peer: peer, Prefix: ev.Prefix, Kind: Announce})
			}
		}
		// Re-announcement when the event clears (with per-neighbor
		// propagation jitter).
		rAt := ev.Start.Add(ev.Duration).Add(time.Duration(g.rng.Int63n(int64(time.Minute))))
		g.updates = append(g.updates, Update{At: rAt, Peer: peer, Prefix: ev.Prefix, Kind: Announce})
	}
}

// InjectCollectorReset emits the artifact of a collector server reboot or
// session reset at time at: every session of one collector re-announces
// the entire monitored table (in reality, the full routing table — the
// cleaning procedure exists precisely to remove these).
func (g *Generator) InjectCollectorReset(at simnet.Time, collector int) {
	for peer := 0; peer < NumSessions; peer++ {
		if peer%NumCollectors != collector%NumCollectors {
			continue
		}
		for _, pfx := range g.prefixes {
			jitter := time.Duration(g.rng.Int63n(int64(5 * time.Minute)))
			g.updates = append(g.updates, Update{
				At:     at.Add(jitter),
				Peer:   uint8(peer),
				Prefix: pfx,
				Kind:   Announce,
			})
		}
	}
}

// poisson draws a Poisson variate (Knuth's method; fine for small means).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	threshold := math.Exp(-mean)
	l := 1.0
	for i := 0; ; i++ {
		l *= rng.Float64()
		if l < threshold {
			return i
		}
		if i > 10000 {
			return i
		}
	}
}
