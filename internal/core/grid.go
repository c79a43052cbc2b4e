package core

// Every analyzer grid is a page table over its roster geometry, with
// pages of pageCells cells allocated on first touch. At paper scale
// every page is touched, so a grid is the flat array plus one index.
// 8-cell pages retain the least state on TestMegaRosterMemory's
// mega-roster stream: 4-cell pages double the page table, and 16-cell
// pages already miss its 5x bound (EXPERIMENTS.md has the sweep).
const (
	pageShift = 3
	pageCells = 1 << pageShift
	pageMask  = pageCells - 1
)

// grid is the backing of a pass's fixed-geometry cell array, indexed in
// the pass's row-major order. Cells of unallocated pages read as zero
// and forEach skips them, so consumers must be written so zero-valued
// cells contribute nothing (every analysis here filters on a minimum
// sample count or sums, which zero cells cannot affect).
type grid[C any] struct {
	n     int
	pages []*[pageCells]C
}

func newGrid[C any](n int) grid[C] {
	return grid[C]{n: n, pages: make([]*[pageCells]C, (n+pageMask)>>pageShift)}
}

// mut returns a mutable cell, allocating its page on first touch. The
// ingest hot path.
func (g *grid[C]) mut(i int) *C {
	p := g.pages[i>>pageShift]
	if p == nil {
		p = new([pageCells]C)
		g.pages[i>>pageShift] = p
	}
	return &p[i&pageMask]
}

// val reads a cell; cells of unallocated pages read as zero.
func (g *grid[C]) val(i int) C {
	if p := g.pages[i>>pageShift]; p != nil {
		return p[i&pageMask]
	}
	var zero C
	return zero
}

// allocated reports how many cells the allocated pages hold.
func (g *grid[C]) allocated() int {
	n := 0
	for _, p := range g.pages {
		if p != nil {
			n += pageCells
		}
	}
	return n
}

// forEach visits the cells of allocated pages in ascending index order,
// stopping at the geometry's end (the last page may run past it).
func (g *grid[C]) forEach(fn func(i int, c *C)) {
	for k, p := range g.pages {
		if p == nil {
			continue
		}
		base := k << pageShift
		for j := 0; j < pageCells && base+j < g.n; j++ {
			fn(base+j, &p[j])
		}
	}
}

// mergeGrid folds src into dst cell-wise with add and consumes src: the
// pages dst lacks move over, leaving src without them, so neither grid
// can write into the other's cells afterwards. Cell-wise addition
// commutes, so shard merges stay order-independent, and the merged pages
// are the union of the shards'. Both grids must have one geometry, which
// Analysis.Merge guarantees by checking rosters, window and replica
// index first.
func mergeGrid[C any](dst, src *grid[C], add func(d, s *C)) {
	for k, sp := range src.pages {
		if sp == nil {
			continue
		}
		dp := dst.pages[k]
		if dp == nil {
			dst.pages[k], src.pages[k] = sp, nil
			continue
		}
		for j := range sp {
			add(&dp[j], &sp[j])
		}
	}
}

// rowTotals reduces a grid of rows x rowLen cells to one summed cell
// per row in a single scan — the per-entity month totals the headline
// analyses read.
func rowTotals(g *grid[gridCell], rowLen, rows int) []gridCell {
	out := make([]gridCell, rows)
	g.forEach(func(i int, c *gridCell) {
		t := &out[i/rowLen]
		t.Txns += c.Txns
		t.FailTxns += c.FailTxns
	})
	return out
}

// StateCells reports the number of grid cells in allocated pages across
// the selected passes. Deterministic for a merged accumulator (shard
// merges allocate the union of the shards' pages), so it is safe to
// expose as an obs gauge.
func (a *Analysis) StateCells() int64 {
	var n int
	if a.grids != nil {
		n += a.grids.client.allocated() + a.grids.server.allocated()
	}
	if a.conns != nil {
		n += a.conns.client.allocated() + a.conns.server.allocated()
	}
	if a.pairs != nil {
		n += a.pairs.cells.allocated()
	}
	if a.replicas != nil {
		n += a.replicas.replicaHours.allocated()
	}
	return int64(n)
}
