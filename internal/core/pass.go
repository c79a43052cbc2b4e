package core

import (
	"fmt"
	"slices"
)

// PassName identifies one analyzer pass — one analysis family's
// streaming accumulator.
type PassName string

// The analyzer passes, one per analysis family. Every pass consumes the
// shared record stream independently; an Analysis owns whichever subset
// a caller selected.
const (
	// PassTotals counts transactions and failures (the run summary
	// line). It is always selected: every artifact's headline depends
	// on it and its state is two integers.
	PassTotals PassName = "totals"
	// PassTraffic accumulates the per-category traffic breakdowns
	// (Table 3, Figure 1), the DNS and TCP failure sub-class maps
	// (Table 4, Figures 2–3), and per-client loss accounting
	// (Section 4.1.3).
	PassTraffic PassName = "traffic"
	// PassGrids accumulates the per-client and per-server
	// transaction grids that episode detection (Figure 4) and blame
	// attribution (Tables 5–9) read.
	PassGrids PassName = "grids"
	// PassFailures retains the compact failure records that attribution,
	// permanence, and proxy analyses replay.
	PassFailures PassName = "failures"
	// PassPairs accumulates month-long per-pair counts for permanent
	// pair detection (Section 4.4.2).
	PassPairs PassName = "pairs"
	// PassReplicas accumulates per-replica traffic for the Section 4.5
	// census and total/partial classification.
	PassReplicas PassName = "replicas"
	// PassConns accumulates the per-entity-hour connection grids
	// (attempts, failures, failure streaks) that the BGP correlation
	// and timelines read (Section 4.6, Figures 5–7).
	PassConns PassName = "conns"
)

// allPasses is the canonical construction and merge order.
var allPasses = []PassName{
	PassTotals, PassTraffic, PassGrids, PassFailures, PassPairs, PassReplicas, PassConns,
}

// AllPasses returns every pass name in canonical order.
func AllPasses() []PassName { return append([]PassName(nil), allPasses...) }

// normalizePasses resolves a selection: empty means every pass, the
// totals pass is always included, duplicates collapse, and the result
// is in canonical order. Unknown names panic — selections reaching the
// accumulator are validated at the report layer.
func normalizePasses(sel []PassName) []PassName {
	if len(sel) == 0 {
		return AllPasses()
	}
	want := map[PassName]bool{PassTotals: true}
	for _, n := range sel {
		if !slices.Contains(allPasses, n) {
			panic(fmt.Sprintf("core: unknown analyzer pass %q", n))
		}
		want[n] = true
	}
	out := make([]PassName, 0, len(want))
	for _, n := range allPasses {
		if want[n] {
			out = append(out, n)
		}
	}
	return out
}
