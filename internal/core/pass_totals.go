package core

import "webfail/internal/measure"

// totalsPass counts transactions and failures — the run summary every
// caller prints. It is always selected.
type totalsPass struct {
	txns, fails int64
}

func newTotalsPass() *totalsPass { return &totalsPass{} }

func (p *totalsPass) consume(r *measure.Record) {
	p.txns++
	if r.Failed() {
		p.fails++
	}
}

func (p *totalsPass) merge(q *totalsPass) {
	p.txns += q.txns
	p.fails += q.fails
}
