// Package core implements the paper's primary contribution: the
// client-based characterization and cross-correlation analysis of
// end-to-end web access failures (Sections 2 and 4) —
//
//   - transaction failure classification and per-category breakdowns
//     (Table 3, Table 4, Figures 1–3);
//   - 1-hour failure episodes, the failure-rate CDFs and their knee
//     (Figure 4), and the blame-attribution procedure classifying failures
//     as server-side / client-side / both / other (Table 5);
//   - permanent client-server pair detection and exclusion (Section
//     4.4.2);
//   - server-side episode statistics, coalescing, and spread (Table 6);
//   - co-located client similarity (Tables 7–8);
//   - replica-level total/partial failure classification (Section 4.5);
//   - BGP instability correlation (Section 4.6, Figures 5–7);
//   - shared proxy-related failure isolation (Section 4.7, Table 9).
//
// The Analysis accumulator consumes measure.Records in one streaming
// pass; every analysis is a pure function over the accumulated state.
// The state itself is decomposed into independent analyzer passes (see
// PassName): callers that need only some artifacts select only the
// passes those artifacts require, and unselected passes are never
// constructed.
package core

import (
	"fmt"
	"slices"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// FailureRec is the compact retained form of a failed transaction, the
// input to the attribution pass: 16 bytes, holding only what the
// failure-list readers use.
type FailureRec struct {
	Client int32
	Site   int32
	Hour   int32 // hour index relative to the analysis window
	Stage  httpsim.Stage
	Conns  int16
}

// Analysis accumulates a run's records across a selected set of
// analyzer passes. The zero selection is every pass; each analysis
// method is a pure function over the pass state it requires and panics
// if that pass was not selected.
type Analysis struct {
	Topo *workload.Topology

	// Window. "Hours" counts episode bins, 1 hour unless Options.Bin
	// sets another duration.
	StartHour int64
	Hours     int
	binNS     int64

	nClients, nSites int

	// outside counts the records Add clamped into the window.
	outside int64

	// The selected passes in canonical order, and one typed handle per
	// pass, nil when unselected: Add and Merge dispatch through the
	// handles.
	passes   []PassName
	totals   *totalsPass
	traffic  *trafficPass
	grids    *gridsPass
	fails    *failuresPass
	pairs    *pairsPass
	replicas *replicasPass
	conns    *connsPass
}

// NewAnalysis creates an accumulator for records in [start, end) with the
// paper's 1-hour episode bins and every analyzer pass selected.
func NewAnalysis(topo *workload.Topology, start, end simnet.Time) *Analysis {
	return NewAnalysisOpts(topo, start, end, Options{})
}

// Options configures an Analysis beyond its window.
type Options struct {
	// Bin is the episode bin duration (<= 0 means the paper's 1 hour):
	// the ablation knob for the Section 4.4.3 trade-off, where short
	// bins catch brief outages but starve on samples and long bins bury
	// them. The BGP correlation requires 1-hour bins (Routeviews
	// aggregation is hourly).
	Bin time.Duration
	// Passes selects the analyzer passes (none = all; totals is always
	// included).
	Passes []PassName
}

// NewAnalysisOpts creates an accumulator for records in [start, end)
// with the configured bins and passes; NewAnalysis is its default.
func NewAnalysisOpts(topo *workload.Topology, start, end simnet.Time, opts Options) *Analysis {
	bin := opts.Bin
	if bin <= 0 {
		bin = time.Hour
	}
	binNS := int64(bin)
	hours := int((int64(end) - int64(start) + binNS - 1) / binNS)
	if hours <= 0 {
		hours = 1
	}
	a := &Analysis{
		Topo:      topo,
		StartHour: int64(start) / binNS,
		Hours:     hours,
		binNS:     binNS,
		nClients:  len(topo.Clients),
		nSites:    len(topo.Websites),
	}
	a.passes = normalizePasses(opts.Passes)
	for _, name := range a.passes {
		switch name {
		case PassTotals:
			a.totals = newTotalsPass()
		case PassTraffic:
			a.traffic = newTrafficPass(a.nClients, a.nSites)
		case PassGrids:
			a.grids = newGridsPass(a.nClients, a.nSites, hours)
		case PassFailures:
			a.fails = newFailuresPass()
		case PassPairs:
			a.pairs = newPairsPass(a.nClients, a.nSites)
		case PassReplicas:
			a.replicas = newReplicasPass(topo, hours)
		case PassConns:
			a.conns = newConnsPass(a.nClients, a.nSites, hours)
		}
	}
	return a
}

// Passes returns the selected pass names in canonical order.
func (a *Analysis) Passes() []PassName { return slices.Clone(a.passes) }

// hourIndex maps a record time to the window-relative bin, clamped; ok
// reports whether the time needed no clamp.
func (a *Analysis) hourIndex(at simnet.Time) (h int, ok bool) {
	h = int(int64(at)/a.binNS - a.StartHour)
	return min(max(h, 0), a.Hours-1), h >= 0 && h < a.Hours
}

// Add consumes one record into every selected pass. Records must arrive
// in per-client time order (both measure modes guarantee per-client
// ordering) for streak tracking. A time outside the window is clamped
// into its first or last bin and counted; the stored-record entry
// points refuse such records (checkWindow).
func (a *Analysis) Add(r *measure.Record) {
	h, ok := a.hourIndex(r.At)
	if !ok {
		a.outside++
	}
	// Direct typed dispatch: this is the ingest hot path, and the
	// passes are independent, so order does not matter.
	if a.totals != nil {
		a.totals.consume(r)
	}
	if a.traffic != nil {
		a.traffic.consume(r)
	}
	if a.grids != nil {
		a.grids.consume(r, h)
	}
	if a.conns != nil {
		a.conns.consume(r, h)
	}
	if a.pairs != nil {
		a.pairs.consume(r)
	}
	if a.replicas != nil {
		a.replicas.consume(r, h)
	}
	if a.fails != nil {
		a.fails.consume(r, h)
	}
}

// checkWindow fails when Add clamped any record into the window: a live
// run never produces one, so only a corrupt stored record can.
func (a *Analysis) checkWindow() error {
	if a.outside == 0 {
		return nil
	}
	return fmt.Errorf("core: %d stored record(s) lie outside the analysis window [%v, %v)",
		a.outside, simnet.Time(a.StartHour*a.binNS), simnet.Time((a.StartHour+int64(a.Hours))*a.binNS))
}

func (a *Analysis) missingPass(name PassName) *Analysis {
	panic(fmt.Sprintf("core: analysis requires pass %q which was not selected", name))
}

func (a *Analysis) mustTraffic() *trafficPass {
	if a.traffic == nil {
		a.missingPass(PassTraffic)
	}
	return a.traffic
}

func (a *Analysis) mustGrids() *gridsPass {
	if a.grids == nil {
		a.missingPass(PassGrids)
	}
	return a.grids
}

func (a *Analysis) mustFailures() *failuresPass {
	if a.fails == nil {
		a.missingPass(PassFailures)
	}
	return a.fails
}

func (a *Analysis) mustPairs() *pairsPass {
	if a.pairs == nil {
		a.missingPass(PassPairs)
	}
	return a.pairs
}

func (a *Analysis) mustReplicas() *replicasPass {
	if a.replicas == nil {
		a.missingPass(PassReplicas)
	}
	return a.replicas
}

func (a *Analysis) mustConns() *connsPass {
	if a.conns == nil {
		a.missingPass(PassConns)
	}
	return a.conns
}

// TotalTxns returns the grand transaction count.
func (a *Analysis) TotalTxns() int64 { return a.totals.txns }

// TotalFails returns the grand failure count.
func (a *Analysis) TotalFails() int64 { return a.totals.fails }

// String summarizes the accumulated run.
func (a *Analysis) String() string {
	return fmt.Sprintf("analysis: %d txns, %d failures (%.2f%%) over %d hours",
		a.totals.txns, a.totals.fails, 100*float64(a.totals.fails)/float64(max(a.totals.txns, 1)), a.Hours)
}
