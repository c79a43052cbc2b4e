package core

import (
	"sort"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/stats"
	"webfail/internal/workload"
)

// CategorySummary is one row of Table 3 plus the Figure 1 stage split.
type CategorySummary struct {
	Category workload.Category
	Txns     int64
	FailTxns int64
	// Conns/FailConns are unavailable (zero) for CN, whose proxy masks
	// the client's wide-area connections (Table 3's N/A).
	Conns     int64
	FailConns int64
	// Stage fractions of failed transactions (Figure 1): DNS, TCP,
	// HTTP.
	DNSShare, TCPShare, HTTPShare float64
}

// TxnFailRate returns the category's transaction failure rate.
func (c *CategorySummary) TxnFailRate() float64 {
	return stats.Rate(int(c.FailTxns), int(c.Txns))
}

// ConnFailRate returns the category's connection failure rate.
func (c *CategorySummary) ConnFailRate() float64 {
	return stats.Rate(int(c.FailConns), int(c.Conns))
}

// Summary produces Table 3 / Figure 1, ordered PL, BB, DU, CN as in the
// paper's Table 3.
func (a *Analysis) Summary() []CategorySummary {
	t := a.mustTraffic()
	order := []workload.Category{workload.PL, workload.BB, workload.DU, workload.CN}
	out := make([]CategorySummary, 0, len(order))
	for _, cat := range order {
		s := CategorySummary{
			Category: cat,
			Txns:     t.catTxns[cat],
			FailTxns: t.catFails[cat],
		}
		if cat != workload.CN {
			s.Conns = t.catConns[cat]
			s.FailConns = t.catFailCo[cat]
		}
		if f := t.catFails[cat]; f > 0 {
			if sc := t.stageCounts[cat]; sc != nil {
				s.DNSShare = float64(sc[httpsim.StageDNS]) / float64(f)
				s.TCPShare = float64(sc[httpsim.StageTCP]) / float64(f)
				s.HTTPShare = float64(sc[httpsim.StageHTTP]) / float64(f)
			}
		}
		out = append(out, s)
	}
	return out
}

// MedianFailureRates returns the study's headline numbers: the median
// transaction failure rate across clients and across servers (1.47% and
// 1.63% in the paper).
func (a *Analysis) MedianFailureRates() (client, server float64) {
	g := a.mustGrids()
	cTotals := rowTotals(&g.client, a.Hours, a.nClients)
	cRates := make([]float64, 0, a.nClients)
	for _, t := range cTotals {
		if t.Txns > 0 {
			cRates = append(cRates, float64(t.FailTxns)/float64(t.Txns))
		}
	}
	sTotals := rowTotals(&g.server, a.Hours, a.nSites)
	sRates := make([]float64, 0, a.nSites)
	for _, t := range sTotals {
		if t.Txns > 0 {
			sRates = append(sRates, float64(t.FailTxns)/float64(t.Txns))
		}
	}
	return stats.Median(cRates), stats.Median(sRates)
}

// ClientFailureRateQuantile returns the q-quantile of per-client failure
// rates (the paper quotes the 95th percentile at 10%).
func (a *Analysis) ClientFailureRateQuantile(q float64) float64 {
	g := a.mustGrids()
	rates := make([]float64, 0, a.nClients)
	for _, t := range rowTotals(&g.client, a.Hours, a.nClients) {
		if t.Txns > 0 {
			rates = append(rates, float64(t.FailTxns)/float64(t.Txns))
		}
	}
	return stats.NewCDF(rates).Quantile(q)
}

// DNSBreakdownRow is one row of Table 4.
type DNSBreakdownRow struct {
	Category     workload.Category
	FailureCount int64
	LDNSTimeout  float64 // fraction
	NonLDNS      float64
	Error        float64
}

// DNSBreakdown produces Table 4 for the direct-access categories (CN is
// excluded: the proxy masks DNS).
func (a *Analysis) DNSBreakdown() []DNSBreakdownRow {
	t := a.mustTraffic()
	order := []workload.Category{workload.PL, workload.BB, workload.DU}
	out := make([]DNSBreakdownRow, 0, len(order))
	for _, cat := range order {
		dc := t.dnsClassByCat[cat]
		var total int64
		if dc != nil {
			total = dc[measure.DNSLDNSTimeout] + dc[measure.DNSNonLDNSTimeout] + dc[measure.DNSErrorResponse]
		}
		row := DNSBreakdownRow{Category: cat, FailureCount: total}
		if total > 0 {
			row.LDNSTimeout = float64(dc[measure.DNSLDNSTimeout]) / float64(total)
			row.NonLDNS = float64(dc[measure.DNSNonLDNSTimeout]) / float64(total)
			row.Error = float64(dc[measure.DNSErrorResponse]) / float64(total)
		}
		out = append(out, row)
	}
	return out
}

// DomainContribution is one website's contribution to a DNS failure
// class, for the Figure 2 cumulative curves.
type DomainContribution struct {
	Host  string
	Count int64
}

// DNSDomainSkew returns, for the given DNS failure class (or all classes
// when class == DNSOK is passed as the sentinel All), the per-website
// failure counts sorted descending — the input to Figure 2's cumulative
// contribution curves. A flat distribution across domains indicates
// client-side causes (LDNS timeouts); a skewed one indicates specific
// broken domains (errors).
func (a *Analysis) DNSDomainSkew(class measure.DNSOutcome, all bool) []DomainContribution {
	t := a.mustTraffic()
	out := make([]DomainContribution, 0, a.nSites)
	for si := 0; si < a.nSites; si++ {
		ds := t.dnsClassBySite[si]
		if ds == nil {
			continue
		}
		var n int64
		if all {
			n = ds[measure.DNSLDNSTimeout] + ds[measure.DNSNonLDNSTimeout] + ds[measure.DNSErrorResponse]
		} else {
			n = ds[class]
		}
		if n > 0 {
			out = append(out, DomainContribution{Host: a.Topo.Websites[si].Host, Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Host < out[j].Host
	})
	return out
}

// CumulativeShare converts sorted contributions to a cumulative-fraction
// series (the y-values of Figure 2 against domain rank).
func CumulativeShare(contribs []DomainContribution) []float64 {
	var total int64
	for _, c := range contribs {
		total += c.Count
	}
	if total == 0 {
		return nil
	}
	out := make([]float64, len(contribs))
	var run int64
	for i, c := range contribs {
		run += c.Count
		out[i] = float64(run) / float64(total)
	}
	return out
}

// TCPBreakdownRow is one bar group of Figure 3.
type TCPBreakdownRow struct {
	Category     workload.Category
	FailureCount int64
	NoConnection float64
	NoResponse   float64
	Partial      float64
}

// TCPBreakdown produces Figure 3 (CN excluded: the proxy masks wide-area
// TCP behaviour).
func (a *Analysis) TCPBreakdown() []TCPBreakdownRow {
	t := a.mustTraffic()
	order := []workload.Category{workload.PL, workload.BB, workload.DU}
	out := make([]TCPBreakdownRow, 0, len(order))
	for _, cat := range order {
		tk := t.tcpKindByCat[cat]
		var total int64
		if tk != nil {
			total = tk[httpsim.NoConnection] + tk[httpsim.NoResponse] + tk[httpsim.PartialResponse]
		}
		row := TCPBreakdownRow{Category: cat, FailureCount: total}
		if total > 0 {
			row.NoConnection = float64(tk[httpsim.NoConnection]) / float64(total)
			row.NoResponse = float64(tk[httpsim.NoResponse]) / float64(total)
			row.Partial = float64(tk[httpsim.PartialResponse]) / float64(total)
		}
		out = append(out, row)
	}
	return out
}

// LossCorrelation computes the Pearson correlation between per-client
// packet loss rate (retransmissions over data packets) and per-client
// transaction failure rate — the paper reports a weak 0.19
// (Section 4.1.3).
func (a *Analysis) LossCorrelation() (float64, error) {
	t := a.mustTraffic()
	g := a.mustGrids()
	totals := rowTotals(&g.client, a.Hours, a.nClients)
	var loss, fail []float64
	for c := 0; c < a.nClients; c++ {
		pkts := t.clientPkts[c]
		if pkts == 0 {
			continue
		}
		tot := totals[c]
		if tot.Txns == 0 {
			continue
		}
		loss = append(loss, float64(t.clientRetrans[c])/float64(pkts))
		fail = append(fail, float64(tot.FailTxns)/float64(tot.Txns))
	}
	return stats.Pearson(loss, fail)
}
