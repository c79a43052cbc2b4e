package core

import "webfail/internal/measure"

// pairCell holds one client-server pair's month-long totals. Counters
// are int64: a month-long mega-roster run can push a hot pair cell
// past 2^31 transactions, which the old int32 counters silently
// wrapped.
type pairCell struct {
	Txns  int64
	Fails int64
}

func addPairCell(d, s *pairCell) {
	d.Txns += s.Txns
	d.Fails += s.Fails
}

// pairsPass accumulates month-long per-pair transaction and failure
// counts for permanent pair detection (Section 4.4.2). The clients x
// sites geometry is the analyzer's largest, so paging matters most
// here.
type pairsPass struct {
	nSites int
	cells  grid[pairCell] // [client*nSites + site]
}

func newPairsPass(nClients, nSites int) *pairsPass {
	return &pairsPass{
		nSites: nSites,
		cells:  newGrid[pairCell](nClients * nSites),
	}
}

func (p *pairsPass) consume(r *measure.Record) {
	c := p.cells.mut(int(r.ClientIdx)*p.nSites + int(r.SiteIdx))
	c.Txns++
	if r.Failed() {
		c.Fails++
	}
}

func (p *pairsPass) merge(q *pairsPass) {
	mergeGrid(&p.cells, &q.cells, addPairCell)
}
