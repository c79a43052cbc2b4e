package core

import "webfail/internal/measure"

// failBlockRecs is the capacity of one failure-list block (80 KB of
// FailureRecs): large enough that the block index stays small at 10⁶
// failures, small enough that a shard's partly filled last block wastes
// little.
const failBlockRecs = 1 << 12

// failuresPass retains the compact form of every failed transaction —
// the input the attribution, permanence-share, and proxy analyses
// replay. Records append in consume order into blocks of failBlockRecs,
// every block full but the last, so the list grows without ever copying
// what it holds; readers visit it in order through forEach. Shard
// accumulators must merge in shard order to recover a serial run's exact
// list.
type failuresPass struct {
	blocks [][]FailureRec
}

func newFailuresPass() *failuresPass { return &failuresPass{} }

func (p *failuresPass) consume(r *measure.Record, hour int) {
	if !r.Failed() {
		return
	}
	last := p.room()
	*last = append(*last, FailureRec{
		Client: r.ClientIdx,
		Site:   r.SiteIdx,
		Hour:   int32(hour),
		Stage:  r.Stage,
		DNS:    r.DNS,
		Kind:   r.FailKind,
		Conns:  r.Conns,
	})
}

// room returns the last block, starting a new one when the list is empty
// or its last block is full.
func (p *failuresPass) room() *[]FailureRec {
	n := len(p.blocks)
	if n == 0 || len(p.blocks[n-1]) == failBlockRecs {
		p.blocks = append(p.blocks, make([]FailureRec, 0, failBlockRecs))
		n++
	}
	return &p.blocks[n-1]
}

// forEach calls fn on every record, in list order.
func (p *failuresPass) forEach(fn func(fr *FailureRec)) {
	for _, blk := range p.blocks {
		for i := range blk {
			fn(&blk[i])
		}
	}
}

// merge appends q's records after p's, filling p's blocks, so the merged
// list keeps the serial layout.
func (p *failuresPass) merge(q *failuresPass) error {
	for _, blk := range q.blocks {
		for len(blk) > 0 {
			last := p.room()
			k := copy((*last)[len(*last):failBlockRecs], blk)
			*last = (*last)[:len(*last)+k]
			blk = blk[k:]
		}
	}
	return nil
}
