package core

import "webfail/internal/httpsim"

// FailCount is one row of a worst-first failure listing: a client, a
// site or a window bin, and its failed transactions.
type FailCount struct {
	Index int
	Fails int64
}

// PairFailCount is one row of the worst-first pair listing.
type PairFailCount struct {
	Client, Site int
	Fails        int64
}

// rankedBelow is the strict total order of every failure listing: more
// failures rank higher, and ties go to the lower index. Being total, it
// makes a bounded topK selection equal a full sort truncated.
func rankedBelow(x, y FailCount) bool {
	if x.Fails != y.Fails {
		return x.Fails < y.Fails
	}
	return x.Index > y.Index
}

// worstK sums g's failed transactions into n totals, cell i counting
// toward totals[of(i)], and lists the k worst, leaving out totals of
// zero.
func worstK(g *grid[gridCell], n, k int, of func(i int) int) []FailCount {
	totals := make([]int64, n)
	g.forEach(func(i int, c *gridCell) { totals[of(i)] += int64(c.FailTxns) })
	top := newTopK[FailCount](k, rankedBelow)
	for i, f := range totals {
		if f > 0 {
			top.push(FailCount{Index: i, Fails: f})
		}
	}
	return top.sorted()
}

// StageFailures counts the transactions that failed at stage st, over
// every category.
func (a *Analysis) StageFailures(st httpsim.Stage) int64 {
	var n int64
	for _, sc := range &a.mustTraffic().stageCounts {
		if sc != nil {
			n += sc[st]
		}
	}
	return n
}

// TopFailingClients lists the k clients with the most failed
// transactions, worst first with ties to the lower index, leaving out
// clients without failures.
func (a *Analysis) TopFailingClients(k int) []FailCount {
	return worstK(&a.mustGrids().client, a.nClients, k, func(i int) int { return i / a.Hours })
}

// TopFailingSites lists websites like TopFailingClients.
func (a *Analysis) TopFailingSites(k int) []FailCount {
	return worstK(&a.mustGrids().server, a.nSites, k, func(i int) int { return i / a.Hours })
}

// WorstHours lists window bins like TopFailingClients. Index is
// window-relative: the bin's absolute number is StartHour + Index.
func (a *Analysis) WorstHours(k int) []FailCount {
	return worstK(&a.mustGrids().client, a.Hours, k, func(i int) int { return i % a.Hours })
}

// TopFailingPairs lists the k client-server pairs with the most failed
// transactions, ordered like TopFailingClients on the row-major pair
// index (client, then site). The pairs grid streams through the bounded
// heap, which holds at most k pairs at any moment.
func (a *Analysis) TopFailingPairs(k int) []PairFailCount {
	top := newTopK[FailCount](k, rankedBelow)
	a.mustPairs().cells.forEach(func(i int, c *pairCell) {
		if c.Fails > 0 {
			top.push(FailCount{Index: i, Fails: c.Fails})
		}
	})
	worst := top.sorted()
	out := make([]PairFailCount, len(worst))
	for j, w := range worst {
		out[j] = PairFailCount{Client: w.Index / a.nSites, Site: w.Index % a.nSites, Fails: w.Fails}
	}
	return out
}
