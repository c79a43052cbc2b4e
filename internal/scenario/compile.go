package scenario

import (
	"fmt"
	"math"
	"time"

	"webfail/internal/faults"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// Compilation is deterministic by construction: no random numbers are
// drawn. Weighted choices (templates, group sizes, regions) use a
// largest-remainder round-robin, which reproduces weights exactly over
// any prefix of the sequence (an N-item fleet with weights 0.25/0.75
// contains floor/ceil of N/4 and 3N/4 items of each template) and is
// stable run to run. Equal weights degenerate to plain cycling.

// wrr is a largest-remainder weighted round-robin chooser over
// normalized weights.
type wrr struct {
	weights []float64
	picks   []int
	k       int
}

func newWRR(weights []float64) *wrr {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / sum
	}
	return &wrr{weights: norm, picks: make([]int, len(norm))}
}

// next returns the option owed the most quota — the largest deficit
// k*weight - picks, recomputed from the draw counter each time rather
// than accumulated (incremental float sums drift by an ulp and reorder
// later picks). Ties break to the lowest index, so equal weights cycle
// 0,1,2,...
func (w *wrr) next() int {
	w.k++
	best, bestV := -1, 0.0
	for i := range w.weights {
		v := float64(w.k)*w.weights[i] - float64(w.picks[i])
		if best < 0 || v > bestV {
			best, bestV = i, v
		}
	}
	w.picks[best]++
	return best
}

// startupOffset computes client i's activation delay under a fleet's
// startup pattern.
func startupOffset(st *StartupSpec, i, count int) time.Duration {
	if st == nil || st.Pattern == StartupInstant || count <= 1 {
		return 0
	}
	w := st.Window.D()
	switch st.Pattern {
	case StartupLinear:
		return time.Duration(int64(w) * int64(i) / int64(count))
	case StartupExponential:
		// Population grows exponentially across the window, so most
		// clients come online late: t_i/W = log(1+i)/log(1+N).
		return time.Duration(float64(w) * math.Log(1+float64(i)) / math.Log(1+float64(count)))
	case StartupWave:
		waves := st.Waves
		if waves <= 0 {
			waves = 4
		}
		wave := i * waves / count
		return time.Duration(int64(w) * int64(wave) / int64(waves))
	}
	return 0
}

// expandRoster compiles the spec's population blocks into a concrete
// roster, in block order. It assumes structural validation has passed;
// global invariants (uniqueness, capacity) are checked by Validate.
func (s *Spec) expandRoster() ([]workload.Client, []workload.Website, error) {
	var cs []workload.Client
	for _, b := range s.Clients {
		switch {
		case b.Group != nil:
			g := b.Group
			cat, _ := parseCategory(g.Category)
			for i := 1; i <= g.Count; i++ {
				cs = append(cs, workload.Client{
					Name:          fmt.Sprintf(g.NameFormat, i),
					Category:      cat,
					Site:          g.Site,
					Region:        g.Region,
					Proxied:       g.Proxied,
					RoundsPerHour: g.RoundsPerHour,
				})
			}
		case len(b.Members) > 0:
			for _, m := range b.Members {
				cat, _ := parseCategory(m.Category)
				cs = append(cs, workload.Client{
					Name:          m.Name,
					Category:      cat,
					Site:          m.Site,
					Region:        m.Region,
					Proxied:       m.Proxied,
					RoundsPerHour: m.RoundsPerHour,
				})
			}
		case b.Fleet != nil:
			f := b.Fleet
			tw := make([]float64, len(f.Templates))
			for i, t := range f.Templates {
				tw[i] = t.Weight
			}
			tmplRR := newWRR(tw)
			sizes := f.GroupSizes
			if len(sizes) == 0 {
				sizes = []WeightedInt{{Value: 1, Weight: 1}}
			}
			sw := make([]float64, len(sizes))
			for i, g := range sizes {
				sw[i] = g.Weight
			}
			sizeRR := newWRR(sw)
			rw := make([]float64, len(f.Regions))
			for i, r := range f.Regions {
				rw[i] = r.Weight
			}
			regionRR := newWRR(rw)
			siteIdx, remaining := 0, 0
			var site, region string
			for i := 0; i < f.Count; i++ {
				if remaining == 0 {
					site = fmt.Sprintf(f.SiteFormat, siteIdx)
					region = f.Regions[regionRR.next()].Value
					remaining = sizes[sizeRR.next()].Value
					siteIdx++
				}
				t := f.Templates[tmplRR.next()]
				cat, _ := parseCategory(t.Category)
				cs = append(cs, workload.Client{
					Name:          fmt.Sprintf(f.NameFormat, i),
					Category:      cat,
					Site:          site,
					Region:        region,
					Proxied:       t.Proxied,
					RoundsPerHour: t.RoundsPerHour,
					StartOffset:   startupOffset(f.Startup, i, f.Count),
				})
				remaining--
			}
		default:
			return nil, nil, fmt.Errorf("clients: empty block")
		}
	}

	var ws []workload.Website
	for _, b := range s.Websites {
		switch {
		case len(b.List) > 0:
			for _, w := range b.List {
				size := w.IndexSize
				if size == 0 {
					size = 10240
				}
				ws = append(ws, workload.Website{
					Host:           w.Host,
					Group:          knownGroups[w.Group],
					Region:         w.Region,
					Replicas:       w.Replicas,
					SpreadReplicas: w.SpreadReplicas,
					IndexSize:      size,
				})
			}
		case b.Fleet != nil:
			f := b.Fleet
			tw := make([]float64, len(f.Templates))
			for i, t := range f.Templates {
				tw[i] = t.Weight
			}
			tmplRR := newWRR(tw)
			rw := make([]float64, len(f.Regions))
			for i, r := range f.Regions {
				rw[i] = r.Weight
			}
			regionRR := newWRR(rw)
			for j := 0; j < f.Count; j++ {
				t := f.Templates[tmplRR.next()]
				size := t.IndexSize
				if size == 0 {
					size = 10240
				}
				ws = append(ws, workload.Website{
					Host:           fmt.Sprintf(f.HostFormat, j),
					Group:          knownGroups[t.Group],
					Region:         f.Regions[regionRR.next()].Value,
					Replicas:       t.Replicas,
					SpreadReplicas: t.SpreadReplicas,
					IndexSize:      size,
				})
			}
		default:
			return nil, nil, fmt.Errorf("websites: empty block")
		}
	}
	return cs, ws, nil
}

// clientBlockIndex maps each expanded client index to the block that
// produced it (for overlap diagnostics).
func (s *Spec) clientBlockIndex() []int {
	var out []int
	for bi, b := range s.Clients {
		n := 0
		switch {
		case b.Group != nil:
			n = b.Group.Count
		case len(b.Members) > 0:
			n = len(b.Members)
		case b.Fleet != nil:
			n = b.Fleet.Count
		}
		for i := 0; i < n; i++ {
			out = append(out, bi)
		}
	}
	return out
}

// Roster compiles the client and website rosters. The spec must have
// been validated (Parse validates; hand-built specs should call
// Validate first).
func (s *Spec) Roster() ([]workload.Client, []workload.Website, error) {
	return s.expandRoster()
}

// Topology compiles the roster, truncates it to the first nClients
// clients and nSites websites (0 or out-of-range means all — the
// semantics of the CLI -clients/-sites flags), and assigns addresses.
func (s *Spec) Topology(nClients, nSites int) (*workload.Topology, error) {
	cs, ws, err := s.expandRoster()
	if err != nil {
		return nil, err
	}
	if nClients > 0 && nClients < len(cs) {
		cs = cs[:nClients]
	}
	if nSites > 0 && nSites < len(ws) {
		ws = ws[:nSites]
	}
	return workload.NewRosterTopology(cs, ws), nil
}

// Params compiles the fault calibration for the given seed and window.
func (s *Spec) Params(seed int64, start, end simnet.Time) (workload.ScenarioParams, error) {
	f := &s.Faults
	perCat := func(m map[string]ProcessSpec) map[workload.Category]faults.Process {
		out := make(map[workload.Category]faults.Process, len(m))
		for name, ps := range m {
			cat, _ := parseCategory(name)
			out[cat] = ps.proc()
		}
		return out
	}
	p := workload.ScenarioParams{
		Seed:  seed,
		Start: start,
		End:   end,

		MachineOff:     perCat(f.MachineOff),
		SiteConn:       perCat(f.SiteConn),
		ClientConn:     perCat(f.ClientConn),
		LDNSOutage:     perCat(f.LDNSOutage),
		LDNSFlaky:      perCat(f.LDNSFlaky),
		WANOutage:      perCat(f.WANOutage),
		SiteFactorMean: f.SiteFactorMean,

		SiteOutage:    f.SiteOutage.proc(),
		ReplicaOutage: f.ReplicaOutage.proc(),
		SiteOverload:  f.SiteOverload.proc(),
		AuthDNSOutage: f.AuthDNSOutage.proc(),
		HTTPError:     f.HTTPError.proc(),

		BGPRate:           f.BGPRate,
		BGPGlobalFraction: f.BGPGlobalFraction,

		TransientConnFail: f.TransientConnFail,
		TransientDNSFail:  f.TransientDNSFail,
		TransientHTTPErr:  f.TransientHTTPErr,
	}
	for _, sp := range f.Specials {
		ss := workload.SpecialServer{
			Host:                 sp.Host,
			ChronicCover:         sp.ChronicCover,
			ChronicSeverity:      sp.ChronicSeverity,
			ExtraOutageRate:      sp.ExtraOutageRate,
			ReplicaFlakyFraction: sp.ReplicaFlakyFraction,
		}
		if sp.ChronicCover > 0 {
			kind, ok := faults.ParseKind(sp.ChronicKind)
			if !ok {
				return p, fmt.Errorf("scenario %q: faults.specials: unknown fault kind %q", s.Name, sp.ChronicKind)
			}
			mode, ok := parseChronicMode(kind, sp.ChronicMode)
			if !ok {
				return p, fmt.Errorf("scenario %q: faults.specials: mode %q invalid for kind %q", s.Name, sp.ChronicMode, sp.ChronicKind)
			}
			ss.ChronicKind = kind
			ss.ChronicMode = mode
		}
		p.Specials = append(p.Specials, ss)
	}
	for _, ce := range f.ChronicSites {
		p.ChronicSites = append(p.ChronicSites, workload.ChronicEntity{Name: ce.Name, Cover: ce.Cover, Severity: ce.Severity})
	}
	for _, ce := range f.ChronicClients {
		p.ChronicClients = append(p.ChronicClients, workload.ChronicEntity{Name: ce.Name, Cover: ce.Cover, Severity: ce.Severity})
	}
	for _, ev := range f.PinnedBGP {
		mode, ok := parseBGPMode(ev.Mode)
		if !ok {
			return p, fmt.Errorf("scenario %q: faults.pinnedBGP: unknown mode %q", s.Name, ev.Mode)
		}
		p.PinnedBGP = append(p.PinnedBGP, workload.PinnedBGPEvent{
			ClientSubstr: ev.ClientSubstr,
			AtUnix:       ev.AtUnix,
			Duration:     ev.Duration.D(),
			Severity:     ev.Severity,
			Mode:         mode,
		})
	}
	for _, pp := range f.Permanent {
		mode, ok := parseBlockMode(pp.Mode)
		if !ok {
			return p, fmt.Errorf("scenario %q: faults.permanent: unknown mode %q", s.Name, pp.Mode)
		}
		p.Permanent = append(p.Permanent, workload.PermanentPairSpec{Site: pp.Site, Host: pp.Host, Mode: mode})
	}
	return p, nil
}

func (ps ProcessSpec) proc() faults.Process {
	kind, _ := faults.ParseKind(ps.Kind)
	return faults.Process{
		Kind:         kind,
		RatePerMonth: ps.RatePerMonth,
		MeanDuration: ps.MeanDuration.D(),
		MinDuration:  ps.MinDuration.D(),
		MaxDuration:  ps.MaxDuration.D(),
		SeverityLow:  ps.SeverityLow,
		SeverityHigh: ps.SeverityHigh,
	}
}
