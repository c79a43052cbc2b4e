package core

import (
	"net/netip"
	"sort"

	"webfail/internal/bgpsim"
	"webfail/internal/faults"
	"webfail/internal/simnet"
	"webfail/internal/stats"
	"webfail/internal/workload"
)

// BGPUpdates derives the Routeviews-style update stream implied by a
// scenario, sorted by time: every BGPInstability episode becomes a
// withdrawal storm over its prefix (the episode severity is the
// withdrawing-neighbor fraction), on top of baseline churn, with one
// collector session reset injected to exercise the Section 3.6 cleaning
// procedure.
func BGPUpdates(topo *workload.Topology, sc *workload.Scenario, seed int64) []bgpsim.Update {
	prefixes := topo.AllPrefixes()
	gen := bgpsim.NewGenerator(seed, prefixes)
	gen.GenerateBaseline(sc.Params.Start, sc.Params.End)

	for _, pfx := range prefixes {
		for _, ep := range sc.Timeline.Episodes(workload.PrefixEntity(pfx)) {
			if ep.Kind != faults.BGPInstability {
				continue
			}
			gen.InjectInstability(bgpsim.InstabilityEvent{
				Prefix:             pfx,
				Start:              ep.Start,
				Duration:           ep.Duration,
				NeighborFraction:   ep.Severity,
				ExplorationUpdates: 2,
			})
		}
	}
	// One mid-experiment collector reset (the artifact the cleaning
	// step exists for), placed deterministically.
	if span := sc.Params.End.Sub(sc.Params.Start); span > 0 {
		gen.InjectCollectorReset(sc.Params.Start.Add(span/3), 2)
	}
	return gen.Updates()
}

// GenerateBGP aggregates the BGPUpdates stream by prefix and hour and
// cleans it, returning the cleaned table and the hours flagged as
// collector resets.
func GenerateBGP(topo *workload.Topology, sc *workload.Scenario, seed int64) (bgpsim.PrefixHourTable, map[int64]bool) {
	table := bgpsim.Aggregate(BGPUpdates(topo, sc, seed))
	resets := bgpsim.Clean(table, bgpsim.CleanConfig{ResetFraction: 0.5, TotalPrefixes: len(topo.AllPrefixes())})
	return table, resets
}

// InstabilityHour is one (prefix, hour) flagged severely unstable, joined
// with the end-to-end TCP failure rate of the prefix's entities.
type InstabilityHour struct {
	Prefix   netip.Prefix
	Hour     int64 // absolute hour index
	FailRate float64
	Attempts int
	// Withdrawals and WithdrawNeighbors echo the BGP side.
	Withdrawals       int
	WithdrawNeighbors int
}

// BGPCorrelation joins severe BGP instability hours with end-to-end
// failure rates (Section 4.6): definition A flags hours where >= 70 of 73
// neighbors withdrew; definition B requires >= 50 neighbors and >= 75
// withdrawal messages.
type BGPCorrelation struct {
	Severe70    []InstabilityHour
	Severe50x75 []InstabilityHour
	// TotalPrefixHours is the population size (prefixes x hours), the
	// paper's "719 one-hour periods and 203 clients and replicas".
	TotalPrefixHours int64
}

// prefixEntities maps each monitored prefix to the client and site
// indices whose traffic it carries.
type prefixEntities struct {
	clients map[netip.Prefix][]int
	sites   map[netip.Prefix][]int
}

func (a *Analysis) prefixEntities() prefixEntities {
	pe := prefixEntities{
		clients: make(map[netip.Prefix][]int),
		sites:   make(map[netip.Prefix][]int),
	}
	for i := range a.Topo.Clients {
		p := a.Topo.Clients[i].Prefix
		pe.clients[p] = append(pe.clients[p], i)
	}
	for s := range a.Topo.Websites {
		for _, p := range a.Topo.Websites[s].Prefixes {
			pe.sites[p] = append(pe.sites[p], s)
		}
	}
	return pe
}

// prefixHourFailRate aggregates the TCP connection failure rate of the
// prefix's entities in the given window-relative hour.
func (a *Analysis) prefixHourFailRate(pe prefixEntities, pfx netip.Prefix, h int) (rate float64, attempts int) {
	cp := a.mustConns()
	var conns, fails int64
	for _, c := range pe.clients[pfx] {
		cell := cp.client.val(c*a.Hours + h)
		conns += int64(cell.Conns)
		fails += int64(cell.FailConns)
	}
	for _, s := range pe.sites[pfx] {
		cell := cp.server.val(s*a.Hours + h)
		conns += int64(cell.Conns)
		fails += int64(cell.FailConns)
	}
	if conns == 0 {
		return 0, 0
	}
	return float64(fails) / float64(conns), int(conns)
}

// CorrelateBGP produces the Section 4.6 join for both instability
// definitions.
func (a *Analysis) CorrelateBGP(table bgpsim.PrefixHourTable) *BGPCorrelation {
	pe := a.prefixEntities()
	out := &BGPCorrelation{}
	prefixes := a.Topo.AllPrefixes()
	out.TotalPrefixHours = int64(len(prefixes)) * int64(a.Hours)
	for _, pfx := range prefixes {
		for _, absHour := range table.Hours(pfx) {
			h := int(absHour - a.StartHour)
			if h < 0 || h >= a.Hours {
				continue
			}
			st := table.Get(pfx, absHour)
			sev70 := bgpsim.SevereInstability70(st)
			sevB := bgpsim.SevereInstability50x75(st)
			if !sev70 && !sevB {
				continue
			}
			rate, attempts := a.prefixHourFailRate(pe, pfx, h)
			if attempts == 0 {
				continue
			}
			ih := InstabilityHour{
				Prefix:            pfx,
				Hour:              absHour,
				FailRate:          rate,
				Attempts:          attempts,
				Withdrawals:       st.Withdrawals,
				WithdrawNeighbors: st.CleanedWithdrawNeighbors(),
			}
			if sev70 {
				out.Severe70 = append(out.Severe70, ih)
			}
			if sevB {
				out.Severe50x75 = append(out.Severe50x75, ih)
			}
		}
	}
	sortInstability(out.Severe70)
	sortInstability(out.Severe50x75)
	return out
}

func sortInstability(hs []InstabilityHour) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Hour != hs[j].Hour {
			return hs[i].Hour < hs[j].Hour
		}
		return hs[i].Prefix.String() < hs[j].Prefix.String()
	})
}

// FailRateCDF builds the Figure 6 CDF over the instability hours'
// end-to-end failure rates.
func FailRateCDF(hs []InstabilityHour) *stats.CDF {
	rates := make([]float64, len(hs))
	for i, h := range hs {
		rates[i] = h.FailRate
	}
	return stats.NewCDF(rates)
}

// FractionAbove reports the share of instability hours with failure rate
// above x (the paper: >80% of the >= 70-neighbor hours exceed 5%).
func FractionAbove(hs []InstabilityHour, x float64) float64 {
	if len(hs) == 0 {
		return 0
	}
	n := 0
	for _, h := range hs {
		if h.FailRate > x {
			n++
		}
	}
	return float64(n) / float64(len(hs))
}

// TimelinePoint is one hour of the Figure 5/7 per-client time series.
type TimelinePoint struct {
	Hour      int64 // absolute hour
	Unix      int64
	Attempts  int
	ConnFails int
	Streak    int
	// BGP side for the client's prefix.
	Withdrawals       int
	WithdrawNeighbors int
	Announcements     int
}

// ClientTimeline assembles the Figure 5/7 series for one client.
func (a *Analysis) ClientTimeline(clientName string, table bgpsim.PrefixHourTable) []TimelinePoint {
	node := a.Topo.ClientByName(clientName)
	if node == nil {
		return nil
	}
	ci := -1
	for i := range a.Topo.Clients {
		if a.Topo.Clients[i].Name == clientName {
			ci = i
		}
	}
	cp := a.mustConns()
	out := make([]TimelinePoint, 0, a.Hours)
	for h := 0; h < a.Hours; h++ {
		cell := cp.client.val(ci*a.Hours + h)
		abs := a.StartHour + int64(h)
		st := table.Get(node.Prefix, abs)
		out = append(out, TimelinePoint{
			Hour:              abs,
			Unix:              simnet.FromHours(abs).Unix(),
			Attempts:          int(cell.Conns),
			ConnFails:         int(cell.FailConns),
			Streak:            int(cell.StreakMax),
			Withdrawals:       st.Withdrawals,
			WithdrawNeighbors: st.CleanedWithdrawNeighbors(),
			Announcements:     st.Announcements,
		})
	}
	return out
}
