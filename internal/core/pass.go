package core

import (
	"fmt"
	"sort"

	"webfail/internal/measure"
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

// Pass is one analysis family's accumulator. Passes are independent:
// each consumes the shared record stream into private state, and two
// passes of the same type over the same window merge by addition.
type Pass interface {
	// Name identifies the pass.
	Name() PassName
	// Consume folds one record into the pass. hour is the record's
	// window-relative episode bin, computed once by the facade.
	Consume(r *measure.Record, hour int)
	// Merge folds another pass of the same type into this one.
	Merge(other Pass) error
}

// passArtifacts declares, per pass, the report artifacts it feeds; the
// artifact -> passes registry is its inversion. Two analysis families
// carry no ingest state of their own and are satisfied through other
// passes' artifacts: co-location similarity (table7/table8) and proxy
// isolation (table9) are pure functions of the attribution, which
// derives from grids + failures + pairs. table1/table2 render the
// topology alone, so they need only the always-on totals pass.
var passArtifacts = map[PassName][]string{
	PassTotals: {
		"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "table8", "table9",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"replicas", "headlines",
	},
	PassTraffic:  {"table3", "table4", "fig1", "fig2", "fig3", "headlines"},
	PassGrids:    {"table5", "table6", "table7", "table8", "table9", "fig4", "replicas", "headlines"},
	PassFailures: {"table5", "table6", "table7", "table8", "table9", "replicas", "headlines"},
	PassPairs:    {"table5", "table6", "table7", "table8", "table9", "replicas", "headlines"},
	PassReplicas: {"replicas"},
	PassConns:    {"fig5", "fig6", "fig7"},
}

// artifactPasses inverts passArtifacts: artifact name -> required
// passes in canonical order.
var artifactPasses = func() map[string][]PassName {
	m := make(map[string][]PassName)
	for _, name := range allPasses {
		for _, art := range passArtifacts[name] {
			m[art] = append(m[art], name)
		}
	}
	return m
}()

// PassesForArtifact returns the passes required to feed one report
// artifact, in canonical order, or nil when the artifact is unknown.
func PassesForArtifact(artifact string) []PassName {
	return append([]PassName(nil), artifactPasses[artifact]...)
}

// RegisteredArtifacts returns every artifact name any pass feeds,
// sorted.
func RegisteredArtifacts() []string {
	out := make([]string, 0, len(artifactPasses))
	for art := range artifactPasses {
		out = append(out, art)
	}
	sort.Strings(out)
	return out
}

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
		if _, ok := passArtifacts[n]; !ok {
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

// mergeTypeError is the Pass.Merge error for mismatched concrete types.
func mergeTypeError(p Pass, other Pass) error {
	return fmt.Errorf("core: pass %q cannot merge a %T", p.Name(), other)
}
