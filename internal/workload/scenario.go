package workload

import (
	"math/rand"
	"strings"
	"time"

	"webfail/internal/faults"
	"webfail/internal/simnet"
)

// ScenarioParams are the calibration knobs for the fault schedule: the
// stochastic per-category and server-side processes plus the hand-placed
// signature faults (chronic servers and sites, pinned BGP events,
// permanent pair blocks). The struct is pure data — internal/scenario
// compiles a declarative spec into it, and BuildScenario below turns it
// into an episode timeline. The zero value is not useful; the
// paper-calibrated configuration is the compiled `paper-default`
// scenario (scenario.PaperParams), tuned so the month-long run
// reproduces the paper's headline statistics (Tables 3–5, Figures 1–4)
// in shape.
type ScenarioParams struct {
	Seed       int64
	Start, End simnet.Time

	// Client-side processes (per category). Rates are per month per
	// entity; site-scoped processes apply to the site entity shared by
	// co-located clients.
	MachineOff map[Category]faults.Process
	SiteConn   map[Category]faults.Process
	ClientConn map[Category]faults.Process
	LDNSOutage map[Category]faults.Process
	LDNSFlaky  map[Category]faults.Process
	// WANOutage breaks the client site's *data path* only: the on-site
	// LDNS still answers and the DNS hierarchy remains reachable (DNS
	// infrastructure uses distinct paths/prefixes — Section 4.1.3 notes
	// DNS and TCP "typically involve distinct Internet components and
	// possibly distinct network paths"). These faults surface as TCP
	// failures attributed to the client side, the Table 5 client-side
	// mass.
	WANOutage map[Category]faults.Process
	// SiteFactorMean skews per-site fault rates: each site draws a
	// multiplier 0.25+Exp(mean-0.25) so a few sites are much flakier
	// than most — required for the skewed client-side episode counts
	// of Table 8.
	SiteFactorMean float64

	// Server-side base processes, applied to every website (special
	// sites get overrides below).
	SiteOutage    faults.Process // whole-site outage (all replicas; same /24)
	ReplicaOutage faults.Process // single-replica outage (partial failures)
	SiteOverload  faults.Process // application hung/stall
	AuthDNSOutage faults.Process
	HTTPError     faults.Process

	// BGP instability per monitored prefix.
	BGPRate           float64 // events per prefix per month
	BGPGlobalFraction float64 // fraction of events withdrawing ~all neighbors

	// Background per-transaction noise (kept outside episodes):
	// transient, uncorrelated failure probabilities.
	TransientConnFail float64 // lone SYN-handshake failure
	TransientDNSFail  float64 // lone lookup timeout
	TransientHTTPErr  float64 // lone HTTP error

	// Specials carries per-website overrides for failure-prone servers
	// (the paper's Table 6 census and Figure 2 DNS misconfigurations).
	Specials []SpecialServer
	// ChronicSites are client sites with persistent low-grade
	// connectivity trouble (the extreme client-side episode counts of
	// Table 8); ChronicClients the per-machine equivalent.
	ChronicSites   []ChronicEntity
	ChronicClients []ChronicEntity
	// PinnedBGP places BGP events at fixed instants on the prefix of a
	// named client — the paper's Figure 5/7 case studies.
	PinnedBGP []PinnedBGPEvent
	// Permanent lists the near-permanent client-site×website blocks
	// (Section 4.4.2), installed in order at client-site granularity.
	Permanent []PermanentPairSpec
}

// SpecialServer carries the per-site overrides for failure-prone servers
// (Table 6) and misconfigured DNS zones (Figure 2).
type SpecialServer struct {
	Host string
	// ChronicCover is the fraction of the window under a chronic
	// moderate-severity failure episode (long episodes; sina's longest
	// stretch in the paper is 448 h).
	ChronicCover    float64
	ChronicSeverity [2]float64
	ChronicKind     faults.Kind
	ChronicMode     uint8
	// ExtraOutageRate adds short whole-site outages per month.
	ExtraOutageRate float64
	// ReplicaFlakyFraction makes EACH replica independently
	// unreachable for this fraction of time, in short episodes — the
	// iitb/royal proxy signature (Section 4.7): with round-robin DNS,
	// the no-failover proxy fails whenever its pinned address is down
	// (~the per-replica fraction), while wget fails over and only
	// loses when all replicas are down at once (rare).
	ReplicaFlakyFraction float64
}

// ChronicEntity marks one client site or client machine as chronically
// flaky: covered for the given fraction of the window by long
// client-connectivity episodes in the given severity band.
type ChronicEntity struct {
	Name     string // site name (ChronicSites) or client name (ChronicClients)
	Cover    float64
	Severity [2]float64
}

// PinnedBGPEvent is a hand-placed BGP episode on the prefix of the first
// client whose name contains ClientSubstr, skipped when the experiment
// window does not cover it.
type PinnedBGPEvent struct {
	ClientSubstr string
	AtUnix       int64
	Duration     time.Duration
	Severity     float64
	Mode         uint8
}

// PermanentPairSpec is one near-permanent (client site, website) block.
type PermanentPairSpec struct {
	Site string
	Host string
	Mode uint8
}

// month is the nominal experiment length used for rates.
const month = 744 * time.Hour

// Overload sub-modes carried in Episode.Mode for ServerOverload episodes;
// the evaluator maps them to httpsim behaviours.
const (
	OverloadHung  = 1 // accepts, never responds ("no response")
	OverloadStall = 2 // partial body then silence ("partial response")
	OverloadAbort = 3 // partial body then RST ("partial response")
)

// Misconfig sub-modes for AuthDNSMisconfig episodes.
const (
	MisconfigServFail = 1
	MisconfigNXDomain = 2
)

// Permanent block sub-modes.
const (
	BlockNoConn  = 0 // SYNs filtered: "no connection"
	BlockPartial = 1 // transfer corrupted mid-stream (the mp3.com
	// checksum case): "partial response"
)

// Scenario is a generated fault schedule plus the derived ground truth.
type Scenario struct {
	Params   ScenarioParams
	Timeline *faults.Timeline
	// PermanentPairs lists the (clientSite, website) pairs blocked for
	// the whole experiment — the paper's 38 pairs (Section 4.4.2).
	PermanentPairs [][2]string
	// SiteQuality holds each client site's flakiness multiplier (1 =
	// typical). Higher-factor sites suffer both more fault episodes
	// and worse background packet loss, which is what produces the
	// (weak) loss/failure correlation of Section 4.1.3.
	SiteQuality map[string]float64
}

// BuildScenario generates the complete fault schedule for a topology.
func BuildScenario(topo *Topology, p ScenarioParams) *Scenario {
	rng := rand.New(rand.NewSource(p.Seed))
	tl := faults.NewTimeline()
	sc := &Scenario{Params: p, Timeline: tl}

	start, end := p.Start, p.End

	// Per-site flakiness factors: exponential with a heavy tail (the
	// paper's 95th-percentile client failure rate is 10%, an order of
	// magnitude over the median — a few sites are much worse than
	// most). Dialup PoPs and the corporate network are commercially
	// operated and capped near nominal quality (Section 4.1.1 confirms
	// no masking proxies; their low failure rates are quality, not
	// artifact).
	siteFactor := make(map[string]float64)
	factorFor := func(site string, cat Category) float64 {
		f, ok := siteFactor[site]
		if !ok {
			// Normalized heavy-tailed draw: mean SiteFactorMean,
			// occasional sites at 5-10x (E[0.6e+0.4e^2] = 1.4 for
			// e ~ Exp(1)).
			e := rng.ExpFloat64()
			f = 0.25 + (p.SiteFactorMean-0.25)*(0.6*e+0.4*e*e)/1.4
			if cat == DU || cat == CN {
				if f > 1.2 {
					f = 1.2
				}
			}
			siteFactor[site] = f
		}
		return f
	}

	scaleProc := func(proc faults.Process, factor float64) faults.Process {
		proc.RatePerMonth *= factor
		return proc
	}

	chronicSites := make(map[string]ChronicEntity, len(p.ChronicSites))
	for _, ce := range p.ChronicSites {
		chronicSites[ce.Name] = ce
	}
	chronicClients := make(map[string]ChronicEntity, len(p.ChronicClients))
	for _, ce := range p.ChronicClients {
		chronicClients[ce.Name] = ce
	}

	// Client-side schedules. Site-scoped processes are generated once
	// per site; client-scoped per client.
	seenSite := make(map[string]bool)
	for i := range topo.Clients {
		c := &topo.Clients[i]
		cat := c.Category
		f := factorFor(c.Site, cat)
		tl.Generate(rng, clientEntity(c.Name), p.MachineOff[cat], start, end)
		tl.Generate(rng, clientEntity(c.Name), scaleProc(p.ClientConn[cat], f), start, end)
		if !seenSite[c.Site] {
			seenSite[c.Site] = true
			tl.Generate(rng, siteEntity(c.Site), scaleProc(p.SiteConn[cat], f), start, end)
			tl.Generate(rng, siteEntity(c.Site), scaleProc(p.LDNSOutage[cat], f), start, end)
			tl.Generate(rng, siteEntity(c.Site), scaleProc(p.LDNSFlaky[cat], f), start, end)
			tl.Generate(rng, PrefixEntity(c.Prefix), scaleProc(p.WANOutage[cat], f), start, end)
			if ce, ok := chronicSites[c.Site]; ok {
				addChronic(rng, tl, siteEntity(c.Site), faults.ClientConnectivity, 0,
					ce.Severity, ce.Cover, start, end)
			}
		}
		if ce, ok := chronicClients[c.Name]; ok {
			addChronic(rng, tl, clientEntity(c.Name), faults.ClientConnectivity, 0,
				ce.Severity, ce.Cover, start, end)
		}
	}
	sc.SiteQuality = siteFactor

	// Server-side schedules.
	specials := make(map[string]SpecialServer, len(p.Specials))
	for _, s := range p.Specials {
		specials[s.Host] = s
	}
	for i := range topo.Websites {
		w := &topo.Websites[i]
		ent := websiteEntity(w.Host)
		// Server operations quality is heterogeneous too: the paper
		// found 56 of 80 sites with at least one server-side failure
		// episode — i.e. 24 sites sailed through the month clean.
		sf := rng.ExpFloat64()
		if sf > 2.0 {
			sf = 2.0
		}
		tl.Generate(rng, ent, scaleProc(p.SiteOutage, sf), start, end)
		overload := p.SiteOverload
		overload.Mode = randOverloadMode(rng)
		tl.Generate(rng, ent, scaleProc(overload, sf), start, end)
		tl.Generate(rng, ent, scaleProc(p.AuthDNSOutage, sf), start, end)
		tl.Generate(rng, ent, scaleProc(p.HTTPError, sf), start, end)
		for _, ra := range w.ReplicaAddrs {
			tl.Generate(rng, replicaEntity(ra), p.ReplicaOutage, start, end)
		}
		if s, ok := specials[w.Host]; ok {
			if s.ChronicCover > 0 {
				addChronic(rng, tl, ent, s.ChronicKind, s.ChronicMode, s.ChronicSeverity, s.ChronicCover, start, end)
			}
			if s.ExtraOutageRate > 0 {
				proc := p.SiteOutage
				proc.RatePerMonth = s.ExtraOutageRate
				tl.Generate(rng, ent, proc, start, end)
			}
			if s.ReplicaFlakyFraction > 0 {
				for _, ra := range w.ReplicaAddrs {
					addFlakyReplica(rng, tl, replicaEntity(ra), s.ReplicaFlakyFraction, start, end)
				}
			}
		}
	}

	// BGP instability per prefix.
	for _, pfx := range topo.AllPrefixes() {
		proc := faults.Process{
			Kind:         faults.BGPInstability,
			RatePerMonth: p.BGPRate * p.BGPGlobalFraction,
			MeanDuration: 18 * time.Minute,
			MinDuration:  5 * time.Minute,
			MaxDuration:  50 * time.Minute,
			SeverityLow:  0.96, SeverityHigh: 1.0,
		}
		// Global events: most neighbors withdraw; severe path impact.
		tl.Generate(rng, PrefixEntity(pfx), proc, start, end)
		// Local events: few neighbors; milder and variable impact.
		local := proc
		local.RatePerMonth = p.BGPRate * (1 - p.BGPGlobalFraction)
		local.SeverityLow, local.SeverityHigh = 0.02, 0.2
		tl.Generate(rng, PrefixEntity(pfx), local, start, end)
	}

	// Hand-placed signature events (the paper's Figures 5 and 7), when
	// the window covers them.
	sc.placePinnedBGP(topo, tl)

	// Permanent pairs (Section 4.4.2): 38 total in the paper roster.
	sc.placePermanentPairs(topo, tl)

	// Freeze sorts the episode index and interns every entity into a
	// dense EntityID handle (assigned in sorted-entity order, so handles
	// are as deterministic as the episode set itself); EntityIDs resolves
	// a roster once and the engines query by ID thereafter.
	tl.Freeze()
	return sc
}

// addChronic covers roughly `cover` of the window with long episodes of
// the given kind and severity range.
func addChronic(rng *rand.Rand, tl *faults.Timeline, e faults.Entity, kind faults.Kind, mode uint8, sev [2]float64, cover float64, start, end simnet.Time) {
	span := end.Sub(start)
	covered := time.Duration(0)
	target := time.Duration(float64(span) * cover)
	at := start
	for covered < target && at < end {
		// Long stretches: mean 60 h, up to ~450 h (sina's longest).
		dur := time.Duration(rng.ExpFloat64() * float64(60*time.Hour))
		if dur < 2*time.Hour {
			dur = 2 * time.Hour
		}
		if dur > 450*time.Hour {
			dur = 450 * time.Hour
		}
		if remaining := target - covered; dur > remaining {
			dur = remaining
		}
		if at.Add(dur) > end {
			dur = end.Sub(at)
		}
		if dur <= 0 {
			break
		}
		s := sev[0] + rng.Float64()*(sev[1]-sev[0])
		tl.Add(faults.Episode{Entity: e, Kind: kind, Mode: mode, Start: at, Duration: dur, Severity: s})
		covered += dur
		// Gap before the next stretch.
		gapBudget := float64(span) * (1 - cover)
		gap := time.Duration(rng.ExpFloat64() * gapBudget / 6)
		at = at.Add(dur + gap)
	}
}

// addFlakyReplica covers `fraction` of the window with hard outages of
// one replica, in ~30-minute episodes — enough for the proxy (which never
// fails over) to fail visibly while direct clients fail over silently.
func addFlakyReplica(rng *rand.Rand, tl *faults.Timeline, e faults.Entity, fraction float64, start, end simnet.Time) {
	span := end.Sub(start)
	target := time.Duration(float64(span) * fraction)
	covered := time.Duration(0)
	for covered < target {
		at := start.Add(time.Duration(rng.Int63n(int64(span))))
		dur := time.Duration((15 + rng.Intn(45))) * time.Minute
		if covered+dur > target {
			dur = target - covered
		}
		if dur <= 0 {
			break
		}
		if at.Add(dur) > end {
			dur = end.Sub(at)
		}
		if dur <= 0 {
			continue
		}
		tl.Add(faults.Episode{Entity: e, Kind: faults.ServerOutage, Start: at, Duration: dur, Severity: 1})
		covered += dur
	}
}

func randOverloadMode(rng *rand.Rand) uint8 {
	switch rng.Intn(3) {
	case 0:
		return OverloadHung
	case 1:
		return OverloadStall
	default:
		return OverloadAbort
	}
}

// placePinnedBGP pins hand-placed BGP episodes (e.g. the paper's Figure 5
// near-global withdrawal and Figure 7 high-impact 2-neighbor withdrawal)
// at their published timestamps, on the prefix of the first client whose
// name contains the event's substring.
func (sc *Scenario) placePinnedBGP(topo *Topology, tl *faults.Timeline) {
	find := func(sub string) *ClientNode {
		for i := range topo.Clients {
			if strings.Contains(topo.Clients[i].Name, sub) {
				return &topo.Clients[i]
			}
		}
		return nil
	}
	for _, ev := range sc.Params.PinnedBGP {
		c := find(ev.ClientSubstr)
		if c == nil {
			continue
		}
		at := simnet.FromUnix(ev.AtUnix)
		if at < sc.Params.Start || at >= sc.Params.End {
			continue
		}
		tl.Add(faults.Episode{
			Entity: PrefixEntity(c.Prefix),
			Kind:   faults.BGPInstability,
			Start:  at, Duration: ev.Duration, Severity: ev.Severity,
			Mode: ev.Mode,
		})
	}
}

// BGPHighImpact marks a low-neighbor-count BGP event that nevertheless
// destroys most reachability (the Figure 7 case: the two withdrawing
// neighbors carried most paths to the client).
const BGPHighImpact = 1

// placePermanentPairs installs the near-permanent client-site×website
// blocks, in spec order. Pairs whose site or website is absent from the
// (possibly truncated) roster are skipped.
func (sc *Scenario) placePermanentPairs(topo *Topology, tl *faults.Timeline) {
	span := sc.Params.End.Sub(sc.Params.Start)
	for _, pp := range sc.Params.Permanent {
		if topo.Website(pp.Host) == nil {
			continue
		}
		found := false
		for i := range topo.Clients {
			if topo.Clients[i].Site == pp.Site {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		sc.PermanentPairs = append(sc.PermanentPairs, [2]string{pp.Site, pp.Host})
		tl.Add(faults.Episode{
			Entity:   pairEntity(pp.Site, pp.Host),
			Kind:     faults.PermanentBlock,
			Mode:     pp.Mode,
			Start:    sc.Params.Start,
			Duration: span,
			Severity: 0.998,
		})
	}
}

// PermanentClientPairs expands the blocked (site, website) pairs to
// client granularity against a topology.
func (sc *Scenario) PermanentClientPairs(topo *Topology) [][2]string {
	var out [][2]string
	for _, p := range sc.PermanentPairs {
		for i := range topo.Clients {
			if topo.Clients[i].Site == p[0] {
				out = append(out, [2]string{topo.Clients[i].Name, p[1]})
			}
		}
	}
	return out
}
