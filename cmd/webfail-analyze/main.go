// Command webfail-analyze inspects a failure dataset written by
// `webfail -save`: per-category and per-stage failure counts, the most
// failure-prone clients, servers, and client-server pairs, and a per-hour
// failure histogram. It demonstrates working from stored records rather
// than a live run (the paper published its measurement data the same
// way).
//
// Usage:
//
//	webfail-analyze -in dataset.bin [-top N] [-parallel N] [-artifacts LIST]
//	                [-forensics CLASS] [-trace-out PATH] [-trace-exemplars N]
//	                [-cpuprofile PATH] [-memprofile PATH]
//	                [-metrics-out PATH] [-metrics-listen ADDR] [-progress]
//
// -forensics CLASS replays the dataset's run in fast mode (the world is
// reconstructed from the stored scenario and run seed) with exemplar
// tracing on, and renders the sampled transactions of the given failure
// class (e.g. tcp:no-connection) as waterfall span trees, naming the
// blamed fault entity on each failing span. A replay that does not
// reproduce the dataset's transaction and failure counts, such as one
// of a packet-mode run, is an error. -trace-out additionally exports
// the replayed exemplars as Chrome trace-event JSON.
//
// The ingest into the core analysis accumulator is sharded across
// -parallel workers: each worker opens only the dataset chunks
// overlapping its client range (the dataset index records each chunk's
// client range), and the shard accumulators merge deterministically —
// the output is identical for any shard count.
//
// The summary reads the dataset once: the totals, traffic, grids and
// pairs analyzer passes accumulate during ingest, and every count and
// top-N listing is read from their state. -artifacts selects paper
// artifacts (table1..table9, fig1..fig7, replicas, headlines, or "all")
// to render from the same ingest; the selection widens the pass set,
// and unselected analyzer passes are never constructed.
//
// A dataset whose header roster differs from the roster its scenario
// rebuilds, or that stores a record outside its window, is an error.
//
// Observability output (progress, metrics, logs) goes to stderr or the
// flagged files only; stdout stays byte-identical for any -parallel
// value whether or not metrics are enabled.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"webfail/internal/core"
	"webfail/internal/dataset"
	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/obs"
	"webfail/internal/report"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/textplot"
	"webfail/internal/workload"
)

const component = "webfail-analyze"

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			obs.Logf(component, "%v", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("webfail-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "dataset path (required)")
	top := fs.Int("top", 10, "rows in top-N listings")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "ingest worker shards (1 = serial)")
	artifacts := fs.String("artifacts", "", `comma-separated report artifacts to render ("all" = everything)`)
	forensics := fs.String("forensics", "", "replay the run and render waterfall forensics for this failure class (e.g. tcp:no-connection)")
	var obsFlags obs.CLIFlags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *top < 0 {
		return fmt.Errorf("-top must be >= 0 (got %d)", *top)
	}
	if obsFlags.TraceOut != "" && *forensics == "" {
		return fmt.Errorf("-trace-out requires -forensics here (or use webfail -trace-out during the run)")
	}
	reg := obs.NewRegistry()
	sess, err := obsFlags.Start(component, reg)
	if err != nil {
		return err
	}
	defer sess.Close()
	sel := report.ParseArtifacts(*artifacts)
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	src, err := dataset.Open(f, st.Size(), dataset.WithMetrics(reg))
	if err != nil {
		return err
	}
	meta := src.Meta()
	spec, err := scenarioFor(meta)
	if err != nil {
		return err
	}
	reg.Gauge(fmt.Sprintf("scenario_info{name=%q,hash=%q}", spec.Name, spec.ShortHash())).Set(1)
	topo, err := spec.Topology(meta.Clients, meta.Websites)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	// The reader bounds records by the header's roster and every pass
	// indexes by the rebuilt one, so the two must agree.
	if len(topo.Clients) != meta.Clients || len(topo.Websites) != meta.Websites {
		return fmt.Errorf("dataset header roster of %d clients x %d websites does not match scenario %q's rebuilt roster of %d x %d",
			meta.Clients, meta.Websites, spec.Name, len(topo.Clients), len(topo.Websites))
	}

	report.DatasetInfo(stdout, meta, src.Stored())

	if *forensics != "" {
		return runForensics(stdout, stderr, meta, spec, topo, *forensics, &obsFlags)
	}

	// The summary reads the totals, the per-category traffic breakdown,
	// the per-entity-hour grids and the pair grid; a report selection
	// widens the pass set to whatever its artifacts require.
	passes := []core.PassName{core.PassTotals, core.PassTraffic, core.PassGrids, core.PassPairs}
	if *artifacts != "" {
		need, err := report.PassesFor(sel)
		if err != nil {
			return err
		}
		passes = append(passes, need...)
	}

	start := simnet.FromUnix(meta.StartUnix)
	end := simnet.FromUnix(meta.EndUnix)
	shards := measure.EffectiveShards(len(topo.Clients), *parallel)
	var prog *obs.Progress
	if obsFlags.Progress {
		prog = obs.NewProgress(stderr, component, "records", src.Stored(), shards, 2*time.Second)
		prog.Start()
	}
	ingestSpan := reg.Span("ingest")
	a, err := core.ConsumeParallelOpts(topo, start, end, src, core.IngestOptions{
		Shards: *parallel, Passes: passes, Metrics: reg, Progress: prog,
	})
	ingestSpan.End()
	prog.Stop()
	if err != nil {
		return err
	}
	// The shard count depends on the flag, so it goes to stderr with the
	// allocated-cell count (also a metric), keeping stdout byte-identical
	// for any ingest width.
	fmt.Fprintf(stderr, "webfail-analyze: %d ingest shards, %d state cells\n", shards, a.StateCells())
	reg.Gauge("core_state_cells").Set(float64(a.StateCells()))
	fmt.Fprintf(stdout, "stored-record accumulator: %s\n", a)
	fmt.Fprintln(stdout, "failure-stage shares over stored records:")
	summary := a.Summary()
	for _, row := range summary {
		if row.FailTxns == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-8v fails=%8d DNS=%5.1f%% TCP=%5.1f%% HTTP=%5.1f%%\n",
			row.Category, row.FailTxns, 100*row.DNSShare, 100*row.TCPShare, 100*row.HTTPShare)
	}
	fmt.Fprintln(stdout)

	fmt.Fprintln(stdout, "failures by stage:")
	for _, st := range []httpsim.Stage{httpsim.StageDNS, httpsim.StageTCP, httpsim.StageHTTP} {
		fmt.Fprintf(stdout, "  %-8s %8d\n", st, a.StageFailures(st))
	}
	fmt.Fprintln(stdout, "failures by category:")
	for _, row := range summary {
		fmt.Fprintf(stdout, "  %-8v %8d\n", row.Category, row.FailTxns)
	}

	fmt.Fprintf(stdout, "\ntop %d failing clients:\n", *top)
	for _, c := range a.TopFailingClients(*top) {
		fmt.Fprintf(stdout, "  %-50s %8d\n", topo.Clients[c.Index].Name, c.Fails)
	}
	fmt.Fprintf(stdout, "\ntop %d failing servers:\n", *top)
	for _, s := range a.TopFailingSites(*top) {
		fmt.Fprintf(stdout, "  %-50s %8d\n", topo.Websites[s.Index].Host, s.Fails)
	}
	fmt.Fprintf(stdout, "\ntop %d failing pairs:\n", *top)
	for _, p := range a.TopFailingPairs(*top) {
		fmt.Fprintf(stdout, "  %-40s x %-24s %6d\n", topo.Clients[p.Client].Name, topo.Websites[p.Site].Host, p.Fails)
	}
	fmt.Fprintf(stdout, "\nworst %d hours by failure count:\n", *top)
	for _, h := range a.WorstHours(*top) {
		fmt.Fprintf(stdout, "  hour %4d: %6d failures\n", a.StartHour+int64(h.Index), h.Fails)
	}

	if *artifacts != "" {
		// Render the selected paper artifacts from the stored records.
		// The scenario (fault ground truth, co-located pairs, BGP
		// inputs) is rebuilt deterministically from the dataset's
		// recorded world and scenario seed.
		params, err := spec.Params(meta.Seed, start, end)
		if err != nil {
			return fmt.Errorf("scenario %q: %w", spec.Name, err)
		}
		sc := workload.BuildScenario(topo, params)
		fmt.Fprintln(stdout)
		repSpan := reg.Span("report")
		rep := &report.Reporter{W: stdout, A: a, Topo: topo, Sc: sc, Seed: meta.Seed}
		rep.Run(sel)
		repSpan.End()
	}
	return nil
}

// runForensics is the -forensics path: it rebuilds the dataset's world
// from the stored scenario metadata, replays the run in fast mode with
// exemplar tracing on, and renders the sampled transactions of the
// requested failure class as waterfall span trees — each span naming
// the blamed entity from the fault ground truth. Fast mode is
// deterministic in (topology, scenario, run seed), all of which the
// dataset records, so the replay must reproduce the header's
// transaction and failure counts; a run it cannot reproduce, such as a
// packet-mode one, is an error.
func runForensics(stdout, stderr io.Writer, meta measure.DatasetMeta, spec *scenario.Spec, topo *workload.Topology, class string, obsFlags *obs.CLIFlags) error {
	if _, err := measure.ParseTraceClass(class); err != nil {
		return err
	}
	start := simnet.FromUnix(meta.StartUnix)
	end := simnet.FromUnix(meta.EndUnix)
	params, err := spec.Params(meta.Seed, start, end)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	sc := workload.BuildScenario(topo, params)
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: meta.RunSeed, Start: start, End: end}
	tracer, txns, fails, err := replay(cfg, obsFlags.TraceExemplars)
	if err == nil && (txns != meta.Transactions || fails != meta.Failures) && cfg.Seed == 0 {
		// Datasets written before RunSeed metadata existed decode to 0;
		// the CLI default has always been 1.
		cfg.Seed = 1
		fmt.Fprintln(stderr, "webfail-analyze: dataset predates run-seed metadata; replaying with the default seed 1")
		tracer, txns, fails, err = replay(cfg, obsFlags.TraceExemplars)
	}
	if err != nil {
		return fmt.Errorf("forensics replay: %w", err)
	}
	if txns != meta.Transactions || fails != meta.Failures {
		return fmt.Errorf("forensics replay of run seed %d made %d transactions and %d failures, but the dataset records %d and %d; only a fast-mode run replays",
			cfg.Seed, txns, fails, meta.Transactions, meta.Failures)
	}

	exs := tracer.Exemplars(class)
	fmt.Fprintf(stdout, "forensics: %d exemplar(s) of class %s (fast-mode replay, run seed %d)\n\n", len(exs), class, cfg.Seed)
	for _, ex := range exs {
		origin := ex.Spans[0].Start
		spans := make([]textplot.WaterfallSpan, len(ex.Spans))
		for i, sp := range ex.Spans {
			spans[i] = textplot.WaterfallSpan{
				Name:    sp.Name,
				Depth:   sp.Depth,
				Start:   float64(sp.Start-origin) / 1e9,
				Dur:     float64(sp.Dur) / 1e9,
				Outcome: sp.Outcome,
				Detail:  sp.Detail,
			}
		}
		title := fmt.Sprintf("%s @ %.2fh", ex.Label, float64(origin)/float64(time.Hour))
		fmt.Fprintln(stdout, textplot.Waterfall(title, 48, spans))
	}
	if obsFlags.TraceOut != "" {
		if err := obsFlags.WriteTrace(tracer); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s (%d exemplars)\n", obsFlags.TraceOut, tracer.Len())
	}
	return nil
}

// replay reruns cfg in fast mode with a tracer keeping k exemplars per
// class, counting the transactions and failures it makes.
func replay(cfg measure.Config, k int) (tracer *obs.Tracer, txns, fails int64, err error) {
	cfg.Trace = obs.NewTracer(k)
	err = measure.Run(cfg, func(r *measure.Record) {
		txns++
		if r.Failed() {
			fails++
		}
	})
	return cfg.Trace, txns, fails, err
}

// scenarioFor reconstructs the world a dataset came from: the embedded
// spec document when the header carries one, the checked-in scenario of
// that name otherwise, and paper-default for datasets written before
// scenario metadata existed.
func scenarioFor(meta measure.DatasetMeta) (*scenario.Spec, error) {
	if len(meta.SpecJSON) > 0 {
		spec, err := scenario.Parse(meta.SpecJSON)
		if err != nil {
			return nil, fmt.Errorf("dataset spec: %w", err)
		}
		return spec, nil
	}
	name := meta.Scenario
	if name == "" {
		name = scenario.PaperDefault
	}
	return scenario.ByName(name)
}
