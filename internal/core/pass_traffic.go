package core

import (
	"webfail/internal/httpsim"
	"webfail/internal/measure"
)

// enumCounts is a flat counter bank indexed by a uint8 enum value
// (Category, Stage, DNSOutcome, ConnFailKind). The full 256-slot span
// means any byte a decoded record carries is a valid index — the hot
// ingest path is pure array arithmetic with no hashing, no bounds
// checks, and no way to panic on unexpected enum values.
type enumCounts [256]int64

func (c *enumCounts) addAll(src *enumCounts) {
	for i, v := range src {
		if v != 0 {
			c[i] += v
		}
	}
}

// trafficPass accumulates the per-category traffic breakdowns (Table 3,
// Figure 1), the DNS and TCP failure sub-classes (Table 4, Figures 2–3),
// and per-client loss accounting (Section 4.1.3). Counters are flat
// enum-indexed arrays rather than maps: ingest touches several of them
// per record, and at dataset-replay rates the map hashing dominated the
// whole pass.
type trafficPass struct {
	// Category totals (Table 3).
	catTxns, catFails   enumCounts
	catConns, catFailCo enumCounts

	// Failure-stage counts per category (Figure 1); banks allocate
	// lazily on a category's first failure.
	stageCounts [256]*enumCounts

	// DNS failure sub-classes per category (Table 4) and per website
	// (Figure 2).
	dnsClassByCat  [256]*enumCounts
	dnsClassBySite []*enumCounts

	// TCP failure kinds per category (Figure 3).
	tcpKindByCat [256]*enumCounts

	// Per-client loss accounting (Section 4.1.3).
	clientPkts, clientRetrans []int64
}

func newTrafficPass(nClients, nSites int) *trafficPass {
	return &trafficPass{
		dnsClassBySite: make([]*enumCounts, nSites),
		clientPkts:     make([]int64, nClients),
		clientRetrans:  make([]int64, nClients),
	}
}

func (p *trafficPass) consume(r *measure.Record) {
	cat := r.Category
	p.catTxns[cat]++
	p.catConns[cat] += int64(r.Conns)
	p.catFailCo[cat] += int64(r.FailedConns())
	p.clientPkts[r.ClientIdx] += int64(r.DataPkts)
	p.clientRetrans[r.ClientIdx] += int64(r.Retransmits)

	if !r.Failed() {
		return
	}
	p.catFails[cat]++

	sc := p.stageCounts[cat]
	if sc == nil {
		sc = new(enumCounts)
		p.stageCounts[cat] = sc
	}
	sc[r.Stage]++

	switch r.Stage {
	case httpsim.StageDNS:
		dc := p.dnsClassByCat[cat]
		if dc == nil {
			dc = new(enumCounts)
			p.dnsClassByCat[cat] = dc
		}
		dc[r.DNS]++
		ds := p.dnsClassBySite[r.SiteIdx]
		if ds == nil {
			ds = new(enumCounts)
			p.dnsClassBySite[r.SiteIdx] = ds
		}
		ds[r.DNS]++
	case httpsim.StageTCP:
		tk := p.tcpKindByCat[cat]
		if tk == nil {
			tk = new(enumCounts)
			p.tcpKindByCat[cat] = tk
		}
		tk[r.FailKind]++
	}
}

// mergeBanks folds src's lazily allocated counter banks into dst.
func mergeBanks(dst, src *[256]*enumCounts) {
	for i, s := range src {
		if s == nil {
			continue
		}
		d := dst[i]
		if d == nil {
			d = new(enumCounts)
			dst[i] = d
		}
		d.addAll(s)
	}
}

func (p *trafficPass) merge(q *trafficPass) {
	p.catTxns.addAll(&q.catTxns)
	p.catFails.addAll(&q.catFails)
	p.catConns.addAll(&q.catConns)
	p.catFailCo.addAll(&q.catFailCo)
	mergeBanks(&p.stageCounts, &q.stageCounts)
	mergeBanks(&p.dnsClassByCat, &q.dnsClassByCat)
	mergeBanks(&p.tcpKindByCat, &q.tcpKindByCat)
	for si, src := range q.dnsClassBySite {
		if src == nil {
			continue
		}
		dst := p.dnsClassBySite[si]
		if dst == nil {
			dst = new(enumCounts)
			p.dnsClassBySite[si] = dst
		}
		dst.addAll(src)
	}
	for i, n := range q.clientPkts {
		p.clientPkts[i] += n
	}
	for i, n := range q.clientRetrans {
		p.clientRetrans[i] += n
	}
}
