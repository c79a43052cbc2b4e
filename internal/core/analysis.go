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
// Pass and the Pass* names): callers that need only some artifacts
// select only the passes those artifacts require, and unselected passes
// are never constructed.
package core

import (
	"fmt"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// entityHour is the composite view of one client's or server's traffic
// within one 1-hour episode (Section 4.4.3 fixes the episode duration
// at one hour), assembled from the grids and conns passes by the
// ClientHour/ServerHour accessors. Fields belonging to an unselected
// pass read as zero.
type entityHour struct {
	Txns      int32
	FailTxns  int32
	Conns     int32
	FailConns int32
	// Streak tracking: longest run of consecutive failed transactions
	// within the hour (Figure 5's third graph).
	streakCur int16
	StreakMax int16
}

// FailureRec is the compact retained form of a failed transaction, the
// input to the attribution pass.
type FailureRec struct {
	Client int32
	Site   int32
	Hour   int32 // hour index relative to the analysis window
	Stage  httpsim.Stage
	DNS    measure.DNSOutcome
	Kind   httpsim.ConnFailKind
	Conns  int16
}

// Analysis accumulates a run's records across a selected set of
// analyzer passes. The zero selection is every pass; each analysis
// method is a pure function over the pass state it requires and panics
// if that pass was not selected.
type Analysis struct {
	Topo *workload.Topology

	// Window. "Hours" counts episode bins; bins are 1 hour by default
	// (Section 4.4.3) but NewAnalysisBinned supports the paper's
	// episode-duration trade-off discussion (10-minute bins catch
	// short outages but starve on samples; 1-day bins bury them).
	StartHour int64
	Hours     int
	binNS     int64

	nClients, nSites int

	// outside counts the records Add clamped into the window.
	outside int64

	// Active passes in canonical order, plus typed handles: the typed
	// fields are nil for unselected passes, and the ingest hot path
	// dispatches through them directly rather than via the interface.
	active   []Pass
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
	return NewAnalysisBinned(topo, start, end, time.Hour)
}

// NewAnalysisSelected creates an accumulator with 1-hour bins and only
// the given analyzer passes (none = all; totals is always included).
func NewAnalysisSelected(topo *workload.Topology, start, end simnet.Time, passes ...PassName) *Analysis {
	return NewAnalysisBinnedSelected(topo, start, end, time.Hour, passes...)
}

// NewAnalysisBinned creates an accumulator with a custom episode bin
// duration — the ablation knob for the Section 4.4.3 trade-off. The BGP
// correlation requires 1-hour bins (Routeviews aggregation is hourly).
func NewAnalysisBinned(topo *workload.Topology, start, end simnet.Time, bin time.Duration) *Analysis {
	return NewAnalysisBinnedSelected(topo, start, end, bin)
}

// NewAnalysisBinnedSelected creates an accumulator with a custom bin
// duration and only the given analyzer passes (none = all; totals is
// always included).
func NewAnalysisBinnedSelected(topo *workload.Topology, start, end simnet.Time, bin time.Duration, passes ...PassName) *Analysis {
	return NewAnalysisOpts(topo, start, end, Options{Bin: bin, Passes: passes})
}

// Options configures an Analysis beyond its window.
type Options struct {
	// Bin is the episode bin duration (<= 0 means the paper's 1 hour).
	Bin time.Duration
	// Passes selects the analyzer passes (none = all; totals is always
	// included).
	Passes []PassName
}

// NewAnalysisOpts is the fully general constructor: every other
// NewAnalysis* variant delegates here.
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
	for _, name := range normalizePasses(opts.Passes) {
		var p Pass
		switch name {
		case PassTotals:
			a.totals = newTotalsPass()
			p = a.totals
		case PassTraffic:
			a.traffic = newTrafficPass(a.nClients, a.nSites)
			p = a.traffic
		case PassGrids:
			a.grids = newGridsPass(a.nClients, a.nSites, hours)
			p = a.grids
		case PassFailures:
			a.fails = newFailuresPass()
			p = a.fails
		case PassPairs:
			a.pairs = newPairsPass(a.nClients, a.nSites)
			p = a.pairs
		case PassReplicas:
			a.replicas = newReplicasPass(topo, hours)
			p = a.replicas
		case PassConns:
			a.conns = newConnsPass(a.nClients, a.nSites, hours)
			p = a.conns
		}
		a.active = append(a.active, p)
	}
	return a
}

// Passes returns the selected pass names in canonical order.
func (a *Analysis) Passes() []PassName {
	out := make([]PassName, len(a.active))
	for i, p := range a.active {
		out[i] = p.Name()
	}
	return out
}

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

// Failures returns the retained failure records in canonical
// (client-major, per-client time-ordered) order.
func (a *Analysis) Failures() []FailureRec { return a.mustFailures().recs }

// ClientHour returns the accumulated cell, assembled from the grids and
// conns passes (unselected passes contribute zeros).
func (a *Analysis) ClientHour(client, hour int) entityHour {
	var eh entityHour
	if a.grids != nil {
		c := a.grids.client.val(client*a.Hours + hour)
		eh.Txns, eh.FailTxns = c.Txns, c.FailTxns
	}
	if a.conns != nil {
		c := a.conns.client.val(client*a.Hours + hour)
		eh.Conns, eh.FailConns = c.Conns, c.FailConns
		eh.streakCur, eh.StreakMax = c.streakCur, c.StreakMax
	}
	return eh
}

// ServerHour returns the accumulated cell, assembled like ClientHour.
func (a *Analysis) ServerHour(site, hour int) entityHour {
	var eh entityHour
	if a.grids != nil {
		c := a.grids.server.val(site*a.Hours + hour)
		eh.Txns, eh.FailTxns = c.Txns, c.FailTxns
	}
	if a.conns != nil {
		c := a.conns.server.val(site*a.Hours + hour)
		eh.Conns, eh.FailConns = c.Conns, c.FailConns
	}
	return eh
}

// PairStats returns the month-long totals for a client-server pair.
func (a *Analysis) PairStats(client, site int) (txns, fails int64) {
	p := a.mustPairs()
	c := p.cells.val(client*a.nSites + site)
	return c.Txns, c.Fails
}

// String summarizes the accumulated run.
func (a *Analysis) String() string {
	return fmt.Sprintf("analysis: %d txns, %d failures (%.2f%%) over %d hours",
		a.totals.txns, a.totals.fails, 100*float64(a.totals.fails)/float64(max(a.totals.txns, 1)), a.Hours)
}
