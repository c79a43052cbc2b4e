package core

import (
	"net/netip"
	"sort"

	"webfail/internal/workload"
)

// ReplicaCensus is the Section 4.5 classification of websites by
// qualifying replica count: a server IP qualifies as a replica only when
// it accounts for at least MinReplicaShare of the site's connections.
type ReplicaCensus struct {
	Zero, One, Multi int
	// Qualifying maps site index -> qualifying replica addresses.
	Qualifying map[int][]netip.Addr
}

// MinReplicaShare is the paper's 10% qualification rule.
const MinReplicaShare = 0.10

// ReplicaCensusAt classifies websites by qualifying replicas under the
// given share threshold (Section 4.5; the threshold is an ablation knob).
func (a *Analysis) ReplicaCensusAt(minShare float64) ReplicaCensus {
	rp := a.mustReplicas()
	rc := ReplicaCensus{Qualifying: make(map[int][]netip.Addr)}
	for s := 0; s < a.nSites; s++ {
		total := rp.siteConns[s]
		var qual []netip.Addr
		for _, ri := range rp.replicaBySite[s] {
			if total > 0 && float64(rp.replicaConns[ri])/float64(total) >= minShare {
				qual = append(qual, rp.replicaAddrs[ri])
			}
		}
		switch len(qual) {
		case 0:
			rc.Zero++
		case 1:
			rc.One++
		default:
			rc.Multi++
		}
		rc.Qualifying[s] = qual
	}
	return rc
}

// ReplicaCensusDefault applies the paper's 10% rule.
func (a *Analysis) ReplicaCensusDefault() ReplicaCensus {
	return a.ReplicaCensusAt(MinReplicaShare)
}

// ReplicaFailureSplit is the Section 4.5 result: among server-side
// failure episodes of multi-replica sites, how many were total (all
// replicas abnormal) vs partial (a proper subset).
type ReplicaFailureSplit struct {
	MultiReplicaEpisodes int
	Total                int
	Partial              int
	// SameSubnetTotals counts total episodes whose replicas share a
	// /24 — the paper's explanation for why totals dominate.
	SameSubnetTotals int
	// ShareOfAllServerEpisodes is the fraction of all server-side
	// episodes belonging to multi-replica sites (62% in the paper).
	ShareOfAllServerEpisodes float64
}

// ReplicaAnalysis sub-classifies the attribution's server-side failure
// episodes at replica granularity.
func (a *Analysis) ReplicaAnalysis(at *Attribution, census ReplicaCensus) ReplicaFailureSplit {
	rp := a.mustReplicas()
	var split ReplicaFailureSplit
	totalEpisodes := 0
	for s := 0; s < a.nSites; s++ {
		hours := at.ServerEpisodeHours[s]
		totalEpisodes += hours.Len()
		qual := census.Qualifying[s]
		if len(qual) < 2 {
			continue
		}
		sameSubnet := replicasShareSubnet(qual)
		hours.ForEach(func(h int) {
			split.MultiReplicaEpisodes++
			// A replica is "failing" in the episode when its own
			// failure rate that hour is >= the attribution
			// threshold (with enough samples to judge).
			failing, observed := 0, 0
			for _, ri := range rp.replicaBySite[s] {
				if !containsAddr(qual, rp.replicaAddrs[ri]) {
					continue
				}
				cell := rp.replicaHours.val(int(ri)*a.Hours + h)
				if cell.Txns < 2 {
					continue
				}
				observed++
				if float64(cell.FailTxns)/float64(cell.Txns) >= at.F {
					failing++
				}
			}
			if observed > 0 && failing == observed {
				split.Total++
				if sameSubnet {
					split.SameSubnetTotals++
				}
			} else {
				split.Partial++
			}
		})
	}
	if totalEpisodes > 0 {
		split.ShareOfAllServerEpisodes = float64(split.MultiReplicaEpisodes) / float64(totalEpisodes)
	}
	return split
}

func containsAddr(list []netip.Addr, a netip.Addr) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

// replicasShareSubnet reports whether all replicas share one /24.
func replicasShareSubnet(addrs []netip.Addr) bool {
	if len(addrs) < 2 {
		return true
	}
	first, err := addrs[0].Prefix(24)
	if err != nil {
		return false
	}
	for _, a := range addrs[1:] {
		p, err := a.Prefix(24)
		if err != nil || p != first {
			return false
		}
	}
	return true
}

// ProxyResidualRow is one column group of Table 9: residual failure rates
// of accesses to a website after excluding failures attributed to
// server-side or client-side episodes.
type ProxyResidualRow struct {
	Site string
	// PerClient maps client name -> residual failure rate (the CN
	// clients' rates are the table's headline).
	PerClient map[string]float64
	// NonCN is the pooled residual failure rate of all non-CN clients.
	NonCN float64
}

// ProxyResidual computes Table 9 for the given websites: for each client,
// failures of accesses to the site that fall in neither a server-side nor
// a client-side failure episode, over the client's total accesses to the
// site outside those episodes.
func (a *Analysis) ProxyResidual(at *Attribution, hosts []string) []ProxyResidualRow {
	g := a.mustGrids()
	siteIdx := make(map[string]int)
	for s := 0; s < a.nSites; s++ {
		siteIdx[a.Topo.Websites[s].Host] = s
	}
	var out []ProxyResidualRow
	for _, host := range hosts {
		s, ok := siteIdx[host]
		if !ok {
			continue
		}
		row := ProxyResidualRow{Site: host, PerClient: make(map[string]float64)}
		var nonCNFails, nonCNTotal int64

		// Residual failures per client come from the failure list;
		// residual totals from the hour grids minus episode hours.
		resFails := make([]int64, a.nClients)
		a.mustFailures().forEach(func(fr *FailureRec) {
			if int(fr.Site) != s {
				return
			}
			if at.ServerEpisodeHours[s].Has(int(fr.Hour)) {
				return
			}
			if at.ClientEpisodeHours[fr.Client].Has(int(fr.Hour)) {
				return
			}
			resFails[fr.Client]++
		})
		for c := 0; c < a.nClients; c++ {
			var total int64
			for h := 0; h < a.Hours; h++ {
				if at.ServerEpisodeHours[s].Has(h) {
					continue
				}
				if at.ClientEpisodeHours[c].Has(h) {
					continue
				}
				// Per-pair-hour totals are not kept; approximate
				// by the client's per-hour share of accesses to
				// this site: accesses are uniform across sites,
				// so txns(client,hour)/nSites.
				total += int64(g.client.val(c*a.Hours+h).Txns) / int64(a.nSites)
			}
			if total == 0 {
				continue
			}
			rate := float64(resFails[c]) / float64(total)
			node := &a.Topo.Clients[c]
			if node.Category == workload.CN {
				row.PerClient[node.Name] = rate
			} else {
				nonCNFails += resFails[c]
				nonCNTotal += total
			}
		}
		if nonCNTotal > 0 {
			row.NonCN = float64(nonCNFails) / float64(nonCNTotal)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}
