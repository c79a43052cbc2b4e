package core

import "webfail/internal/measure"

// failuresPass retains the compact form of every failed transaction —
// the input the attribution, permanence-share, and proxy analyses
// replay. Records append in consume order, so shard accumulators must
// merge in shard order to recover a serial run's exact list.
type failuresPass struct {
	recs []FailureRec
}

func newFailuresPass() *failuresPass { return &failuresPass{} }

func (p *failuresPass) consume(r *measure.Record, hour int) {
	if !r.Failed() {
		return
	}
	p.recs = append(p.recs, FailureRec{
		Client: r.ClientIdx,
		Site:   r.SiteIdx,
		Hour:   int32(hour),
		Stage:  r.Stage,
		DNS:    r.DNS,
		Kind:   r.FailKind,
		Conns:  r.Conns,
	})
}

func (p *failuresPass) merge(q *failuresPass) error {
	p.recs = append(p.recs, q.recs...)
	return nil
}
