package core

import "webfail/internal/measure"

// totalsPass counts transactions and failures — the run summary every
// caller prints. It is always selected.
type totalsPass struct {
	txns, fails int64
}

func newTotalsPass() *totalsPass { return &totalsPass{} }

func (p *totalsPass) Name() PassName                   { return PassTotals }
func (p *totalsPass) Consume(r *measure.Record, _ int) { p.consume(r) }

func (p *totalsPass) consume(r *measure.Record) {
	p.txns++
	if r.Failed() {
		p.fails++
	}
}

func (p *totalsPass) Merge(other Pass) error {
	q, ok := other.(*totalsPass)
	if !ok {
		return mergeTypeError(p, other)
	}
	p.txns += q.txns
	p.fails += q.fails
	return nil
}
