// Command webfail-bgp generates the Routeviews-style BGP update archive
// implied by a fault scenario, optionally writes it as an MRT-like file,
// and reports per-prefix instability: the hours matching each of the
// paper's two severity definitions (Section 4.6) and the effect of the
// collector-reset cleaning procedure (Section 3.6).
//
// Usage:
//
//	webfail-bgp [-hours N] [-seed N] [-scenario S] [-mrt PATH] [-prefix P]
//	            [-cpuprofile PATH] [-memprofile PATH]
//	            [-metrics-out PATH] [-metrics-listen ADDR] [-progress]
//
// The -mrt archive holds the raw update stream the report aggregates:
// baseline churn, every injected instability storm and the collector
// reset, so reading it back, aggregating and cleaning it gives the
// reported table.
//
// Observability output (progress, metrics, logs) goes to stderr or the
// flagged files only; stdout is unchanged by any of those flags.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"slices"
	"sort"
	"time"

	"webfail/internal/bgpsim"
	"webfail/internal/core"
	"webfail/internal/faults"
	"webfail/internal/obs"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

const component = "webfail-bgp"

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			obs.Logf(component, "%v", err)
		}
		os.Exit(1)
	}
}

// run executes one webfail-bgp invocation, printing the report to
// stdout. Factored from main so tests can drive the CLI in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(component, flag.ContinueOnError)
	fs.SetOutput(stderr)
	hours := fs.Int64("hours", 744, "experiment hours")
	seed := fs.Int64("seed", 2005, "scenario seed")
	scenarioFlag := fs.String("scenario", "", "scenario name or spec file path (default paper-default)")
	mrtPath := fs.String("mrt", "", "write MRT archive to this path")
	prefix := fs.String("prefix", "", "report hourly detail for one prefix")
	var obsFlags obs.CLIFlags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if obsFlags.TraceOut != "" {
		return fmt.Errorf("-trace-out applies to transaction runs; use webfail or webfail-analyze -forensics")
	}
	if *hours <= 0 {
		return fmt.Errorf("-hours must be > 0 (got %d)", *hours)
	}
	var detail netip.Prefix
	if *prefix != "" {
		var err error
		if detail, err = netip.ParsePrefix(*prefix); err != nil {
			return fmt.Errorf("-prefix: %w", err)
		}
		// The report is keyed by masked prefixes, so a prefix with host
		// bits set would list no hours.
		if m := detail.Masked(); m != detail {
			return fmt.Errorf("-prefix %v has host bits set; use %v", detail, m)
		}
	}

	reg := obs.NewRegistry()
	sess, err := obsFlags.Start(component, reg)
	if err != nil {
		return err
	}
	defer sess.Close()

	spec, err := scenario.Resolve(*scenarioFlag)
	if err != nil {
		return err
	}
	reg.Gauge(fmt.Sprintf("scenario_info{name=%q,hash=%q}", spec.Name, spec.ShortHash())).Set(1)
	topo, err := spec.Topology(0, 0)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	end := simnet.FromHours(*hours)
	params, err := spec.Params(*seed, 0, end)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	sc := workload.BuildScenario(topo, params)

	prefixes := topo.AllPrefixes()
	if detail.IsValid() && !slices.Contains(prefixes, detail) {
		return fmt.Errorf("-prefix %v is not monitored in scenario %q", detail, spec.Name)
	}
	events := 0
	for _, pfx := range prefixes {
		for _, ep := range sc.Timeline.Episodes(workload.PrefixEntity(pfx)) {
			if ep.Kind == faults.BGPInstability {
				events++
			}
		}
	}
	// Reuse core's generator so numbers match the main harness exactly.
	genSpan := reg.Span("generate")
	bgpSeed := *seed ^ 0x6b67
	table, resets := core.GenerateBGP(topo, sc, bgpSeed)
	genSpan.End()

	var prog *obs.Progress
	if obsFlags.Progress {
		prog = obs.NewProgress(stderr, component, "prefixes", int64(len(prefixes)), 1, 2*time.Second)
		prog.Start()
	}
	scanSpan := reg.Span("scan")
	var aggregated int
	var severe70, severeB []string
	for _, pfx := range prefixes {
		for _, h := range table.Hours(pfx) {
			st := table.Get(pfx, h)
			aggregated += st.Announcements + st.Withdrawals
			if bgpsim.SevereInstability70(st) {
				severe70 = append(severe70, fmt.Sprintf("%v @ hour %d (%d wdr, %d nbrs)", pfx, h, st.Withdrawals, st.CleanedWithdrawNeighbors()))
			}
			if bgpsim.SevereInstability50x75(st) {
				severeB = append(severeB, fmt.Sprintf("%v @ hour %d (%d wdr, %d nbrs)", pfx, h, st.Withdrawals, st.CleanedWithdrawNeighbors()))
			}
		}
		prog.Shard(0).Add(1)
	}
	sort.Strings(severe70)
	sort.Strings(severeB)
	scanSpan.End()
	prog.Stop()

	// All deterministic: the archive is a pure function of seed+hours.
	reg.Counter("bgp_updates_aggregated_total").Add(int64(aggregated))
	reg.Counter("bgp_events_injected_total").Add(int64(events))
	reg.Counter("bgp_reset_hours_total").Add(int64(len(resets)))
	reg.Counter("bgp_severe70_prefix_hours_total").Add(int64(len(severe70)))
	reg.Counter("bgp_severe50x75_prefix_hours_total").Add(int64(len(severeB)))

	fmt.Fprintf(stdout, "monitored prefixes: %d (paper: 137 prefixes for 203 addresses)\n", len(prefixes))
	fmt.Fprintf(stdout, "aggregated updates (post-clean): %d; events injected: %d\n", aggregated, events)
	fmt.Fprintf(stdout, "collector-reset hours cleaned: %d\n", len(resets))
	fmt.Fprintf(stdout, "severe instability (>=70 of 73 neighbors): %d prefix-hours (paper 111)\n", len(severe70))
	for i, s := range severe70 {
		if i >= 10 {
			fmt.Fprintf(stdout, "  ... and %d more\n", len(severe70)-10)
			break
		}
		fmt.Fprintln(stdout, "  "+s)
	}
	fmt.Fprintf(stdout, "severe instability (>=50 neighbors, >=75 withdrawals): %d prefix-hours (paper 32)\n", len(severeB))

	if *prefix != "" {
		fmt.Fprintf(stdout, "\nhourly detail for %v:\n", detail)
		for _, h := range table.Hours(detail) {
			st := table.Get(detail, h)
			fmt.Fprintf(stdout, "  hour %4d: ann=%3d (nbrs %2d)  wdr=%3d (nbrs %2d)\n",
				h, st.Announcements, st.CleanedAnnounceNeighbors(), st.Withdrawals, st.CleanedWithdrawNeighbors())
		}
	}

	if *mrtPath != "" {
		// Regenerate the raw update stream for archival (the table
		// holds only aggregates).
		mrtSpan := reg.Span("mrt")
		updates := core.BGPUpdates(topo, sc, bgpSeed)
		if err := writeMRT(*mrtPath, updates); err != nil {
			return err
		}
		reg.Counter("bgp_mrt_updates_written_total").Add(int64(len(updates)))
		mrtSpan.End()
		fmt.Fprintf(stdout, "\nMRT archive written to %s\n", *mrtPath)
	}
	return nil
}

// writeMRT writes the update stream as an MRT-like archive at path.
func writeMRT(path string, updates []bgpsim.Update) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := bgpsim.WriteMRT(w, updates); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
