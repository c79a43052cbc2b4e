package core

import (
	"net/netip"

	"webfail/internal/measure"
	"webfail/internal/workload"
)

// replicasPass accumulates per-replica traffic for the Section 4.5
// census (the 10%-of-connections qualification rule) and the
// total/partial failure classification. Replica IPs are indexed densely
// in topology order so two passes over the same topology always agree,
// and a record's replica is looked up among its own site's replicas.
// Only the replica-hour grid is paged; the per-replica and per-site
// connection totals are O(roster) int64s.
type replicasPass struct {
	hours int

	replicaAddrs  []netip.Addr
	replicaBySite [][]int32      // site -> replica indexes, topology order
	replicaHours  grid[gridCell] // [replica*hours + h]
	replicaConns  []int64        // total connections per replica (for the 10% rule)
	siteConns     []int64        // total connections per site
}

func newReplicasPass(topo *workload.Topology, hours int) *replicasPass {
	p := &replicasPass{
		hours:         hours,
		replicaBySite: make([][]int32, len(topo.Websites)),
		siteConns:     make([]int64, len(topo.Websites)),
	}
	for j := range topo.Websites {
		for _, ra := range topo.Websites[j].ReplicaAddrs {
			ri := len(p.replicaAddrs)
			p.replicaAddrs = append(p.replicaAddrs, ra)
			p.replicaBySite[j] = append(p.replicaBySite[j], int32(ri))
		}
	}
	p.replicaHours = newGrid[gridCell](len(p.replicaAddrs) * hours)
	p.replicaConns = make([]int64, len(p.replicaAddrs))
	return p
}

func (p *replicasPass) consume(r *measure.Record, hour int) {
	p.siteConns[r.SiteIdx] += int64(r.Conns)
	for _, ri := range p.replicaBySite[r.SiteIdx] {
		if p.replicaAddrs[ri] != r.ReplicaIP {
			continue
		}
		cell := p.replicaHours.mut(int(ri)*p.hours + hour)
		cell.Txns++
		if r.Failed() {
			cell.FailTxns++
		}
		p.replicaConns[ri] += int64(r.Conns)
		return
	}
}

// merge relies on Analysis.Merge having checked that both replica
// indexes have the same length.
func (p *replicasPass) merge(q *replicasPass) {
	mergeGrid(&p.replicaHours, &q.replicaHours, addGridCell)
	for i, v := range q.replicaConns {
		p.replicaConns[i] += v
	}
	for i, v := range q.siteConns {
		p.siteConns[i] += v
	}
}
