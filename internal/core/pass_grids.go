package core

import "webfail/internal/measure"

// gridCell is one entity's transaction traffic within one episode bin.
type gridCell struct {
	Txns     int32
	FailTxns int32
}

func addGridCell(d, s *gridCell) {
	d.Txns += s.Txns
	d.FailTxns += s.FailTxns
}

// gridsPass accumulates the per-client and per-server transaction
// grids that episode detection (Figure 4) and blame attribution
// (Tables 5–9) read.
type gridsPass struct {
	hours  int
	client grid[gridCell] // [client*hours + h]
	server grid[gridCell] // [site*hours + h]
}

func newGridsPass(nClients, nSites, hours int) *gridsPass {
	return &gridsPass{
		hours:  hours,
		client: newGrid[gridCell](nClients * hours),
		server: newGrid[gridCell](nSites * hours),
	}
}

func (p *gridsPass) consume(r *measure.Record, hour int) {
	ch := p.client.mut(int(r.ClientIdx)*p.hours + hour)
	sh := p.server.mut(int(r.SiteIdx)*p.hours + hour)
	ch.Txns++
	sh.Txns++
	if r.Failed() {
		ch.FailTxns++
		sh.FailTxns++
	}
}

func (p *gridsPass) merge(q *gridsPass) {
	mergeGrid(&p.client, &q.client, addGridCell)
	mergeGrid(&p.server, &q.server, addGridCell)
}
