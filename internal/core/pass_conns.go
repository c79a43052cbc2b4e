package core

import "webfail/internal/measure"

// connCell is one entity's connection traffic within one episode bin.
type connCell struct {
	Conns     int32
	FailConns int32
	// Streak tracking: longest run of consecutive failed transactions
	// within the bin (Figure 5's third graph). Client cells only.
	streakCur int16
	StreakMax int16
}

func addConnCell(d, s *connCell) {
	d.Conns += s.Conns
	d.FailConns += s.FailConns
	d.streakCur += s.streakCur
	if s.StreakMax > d.StreakMax {
		d.StreakMax = s.StreakMax
	}
}

// connsPass accumulates the per-entity-hour connection grids — attempt
// and failure counts plus per-client failure streaks — that the BGP
// correlation and client timelines read (Section 4.6, Figures 5–7).
type connsPass struct {
	hours  int
	client grid[connCell] // [client*hours + h]
	server grid[connCell] // [site*hours + h]
}

func newConnsPass(nClients, nSites, hours int) *connsPass {
	return &connsPass{
		hours:  hours,
		client: newGrid[connCell](nClients * hours),
		server: newGrid[connCell](nSites * hours),
	}
}

func (p *connsPass) consume(r *measure.Record, hour int) {
	conns := int32(r.Conns)
	failConns := int32(r.FailedConns())
	ch := p.client.mut(int(r.ClientIdx)*p.hours + hour)
	sh := p.server.mut(int(r.SiteIdx)*p.hours + hour)
	ch.Conns += conns
	ch.FailConns += failConns
	sh.Conns += conns
	sh.FailConns += failConns
	// Streaks are a per-client notion (consecutive accesses by the
	// client failing, Figure 5).
	if r.Failed() {
		ch.streakCur++
		if ch.streakCur > ch.StreakMax {
			ch.StreakMax = ch.streakCur
		}
	} else {
		ch.streakCur = 0
	}
}

// merge adds cells; streak maxima are exact only when the two passes
// saw disjoint client sets, as RunParallel's client-sharded workers
// guarantee (see Analysis.Merge).
func (p *connsPass) merge(q *connsPass) {
	mergeGrid(&p.client, &q.client, addConnCell)
	mergeGrid(&p.server, &q.server, addConnCell)
}
