// Command webfail runs the end-to-end web access failure study and
// regenerates every table and figure of the paper.
//
// Usage:
//
//	webfail [flags]
//
//	-hours N     experiment length in hours (default 744, the paper's month)
//	-seed N      scenario seed (default 2005)
//	-runseed N   per-transaction sampling seed (default 1)
//	-scenario S  world to run: a checked-in scenario name (paper-default,
//	             10k-chaos, cascading-outage, cdn-flap) or a spec file
//	             path; default paper-default, the paper's Table 1/2 world
//	-mode M      "fast" (default) or "packet" (small scales only)
//	-parallel N  worker shards, fast and packet mode (default GOMAXPROCS;
//	             1 = serial; output is identical for any value)
//	-calibrate   run BOTH engines on the same configuration and compare
//	             their failure distributions; prints the calibration
//	             report and exits nonzero when any gated family is
//	             outside tolerance (packet-scale configs only)
//	-clients N   limit the client roster (0 = all)
//	-sites N     limit the website roster (0 = all)
//	-artifacts LIST  comma-separated selection, e.g. "table3,fig5,headlines"
//	             (default: everything)
//	-save PATH   stream the failure dataset to PATH (v3 columnar format)
//	-cpuprofile PATH  write a runtime/pprof CPU profile of the run
//	-memprofile PATH  write a heap profile at exit
//	-metrics-out PATH    write a Prometheus-style metrics dump at exit
//	-metrics-listen ADDR serve live /metrics and /metrics.json snapshots
//	-progress            report run progress to stderr every 2s
//	-trace-out PATH      sample exemplar transactions per failure class
//	             and write their span trees (DNS, TCP attempts, HTTP) as
//	             Chrome trace-event JSON; byte-identical for any -parallel
//	-trace-exemplars N   exemplars kept per failure class (default 3)
//
// The output prints each reproduced artifact next to the paper's
// published value. Observability output (progress, metrics, logs) never
// touches stdout, and the deterministic metrics (transaction, failure,
// episode, and chunk counts) are identical for any -parallel value.
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
	"webfail/internal/measure"
	"webfail/internal/obs"
	"webfail/internal/report"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

const component = "webfail"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		obs.Fatalf(component, "%v", err)
	}
}

// run executes one webfail invocation, printing artifacts to stdout.
// Factored from main so the golden tests can drive the CLI in-process.
func run(argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(component, flag.ContinueOnError)
	var (
		hours        = fs.Int64("hours", 744, "experiment length in hours")
		seed         = fs.Int64("seed", 2005, "scenario seed")
		runSeed      = fs.Int64("runseed", 1, "per-transaction sampling seed")
		scenarioFlag = fs.String("scenario", "", "scenario name or spec file path (default paper-default)")
		mode         = fs.String("mode", "fast", "fast or packet")
		parallel     = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker shards, fast and packet mode (1 = serial)")
		calibrate    = fs.Bool("calibrate", false, "compare fast vs packet failure distributions and exit")
		nClients     = fs.Int("clients", 0, "limit client roster (0 = all)")
		nSites       = fs.Int("sites", 0, "limit website roster (0 = all)")
		artifacts    = fs.String("artifacts", "", "comma-separated artifacts (table1..table9, fig1..fig7, replicas, headlines)")
		savePath     = fs.String("save", "", "write failure dataset to this path")
		obsFlags     obs.CLIFlags
	)
	obsFlags.Register(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	// Every flag check runs before the first line of output.
	switch {
	case *hours <= 0:
		return fmt.Errorf("-hours must be > 0 (got %d)", *hours)
	case *nClients < 0:
		return fmt.Errorf("-clients must be >= 0 (got %d)", *nClients)
	case *nSites < 0:
		return fmt.Errorf("-sites must be >= 0 (got %d)", *nSites)
	case *mode != "fast" && *mode != "packet":
		return fmt.Errorf("-mode must be fast or packet (got %q)", *mode)
	}

	reg := obs.NewRegistry()
	sess, err := obsFlags.Start(component, reg)
	if err != nil {
		return err
	}
	defer sess.Close()

	sel := report.ParseArtifacts(*artifacts)
	// Resolve the selection to the analyzer passes its artifacts need
	// (empty selection = everything); only those accumulate during the
	// run, in every shard.
	passes, err := report.PassesFor(sel)
	if err != nil {
		return err
	}
	spec, err := scenario.Resolve(*scenarioFlag)
	if err != nil {
		return err
	}
	reg.Gauge(fmt.Sprintf("scenario_info{name=%q,hash=%q}", spec.Name, spec.ShortHash())).Set(1)

	topo, err := spec.Topology(*nClients, *nSites)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	end := simnet.FromHours(*hours)
	params, err := spec.Params(*seed, 0, end)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	sc := workload.BuildScenario(topo, params)
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: *runSeed, Start: 0, End: end, Metrics: reg}

	if *calibrate && obsFlags.TraceOut != "" {
		return fmt.Errorf("-trace-out does not apply to -calibrate (it runs both engines)")
	}

	if *calibrate {
		if workload.ExpectedTransactions(topo, *runSeed, 0, end) > 2_000_000 {
			return fmt.Errorf("calibration runs packet mode; reduce -hours/-clients/-sites")
		}
		fmt.Fprintf(stdout, "webfail: calibrating fast vs packet; %d clients x %d websites over %d hours\n\n",
			len(topo.Clients), len(topo.Websites), *hours)
		rep, err := measure.Calibrate(cfg, measure.CalibrateOptions{Shards: *parallel})
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		fmt.Fprintln(stdout, rep)
		if !rep.Pass {
			sess.Close()
			os.Exit(1)
		}
		return nil
	}

	if *mode == "packet" && workload.ExpectedTransactions(topo, *runSeed, 0, end) > 2_000_000 {
		return fmt.Errorf("packet mode at this scale would take very long; reduce -hours/-clients/-sites")
	}
	shards := measure.EffectiveShards(len(topo.Clients), *parallel)
	cfg.Trace = obsFlags.Tracer()
	fmt.Fprintf(stdout, "webfail: %s; %d clients x %d websites over %d hours (%s mode, %d shards)\n",
		topo, len(topo.Clients), len(topo.Websites), *hours, *mode, shards)

	// The progress denominator is the scheduled transaction count —
	// one extra schedule walk, paid only when -progress is on.
	if obsFlags.Progress {
		expected := int64(workload.ExpectedTransactions(topo, *runSeed, 0, end))
		cfg.Progress = obs.NewProgress(os.Stderr, component, "txns", expected, shards, 2*time.Second)
		cfg.Progress.Start()
		// Stop is idempotent; the deferred call guarantees the final
		// 100%-with-totals flush even when the run errors mid-batch.
		defer cfg.Progress.Stop()
	}

	// The dataset streams to disk during the run: shard workers feed
	// per-shard sinks that flush independently compressed chunks, so
	// peak memory is bounded by chunk size x shards rather than the
	// stored record count.
	var (
		dw       *dataset.Writer
		saveFile *os.File
	)
	if *savePath != "" {
		var err error
		saveFile, err = os.Create(*savePath)
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		dw, err = dataset.NewWriter(saveFile, measure.DatasetMeta{
			Seed: *seed, RunSeed: *runSeed, StartUnix: simnet.Time(0).Unix(), EndUnix: end.Unix(),
			Clients: len(topo.Clients), Websites: len(topo.Websites),
			Scenario: spec.Name, SpecHash: spec.Hash(), SpecJSON: spec.CanonicalJSON(),
		}, dataset.Options{Metrics: reg})
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
	}
	// Fast-mode shards run concurrently, so each feeds a private
	// accumulator and sink; a is shard 0's accumulator, and the others
	// merge into it in shard order. The shards are contiguous client
	// ranges and the serial record stream is client-major, so the merged
	// analysis and the saved canonical record order equal a serial run's.
	// Packet mode delivers every shard's records after its workers
	// finish, sequentially in canonical order, so a and one sink take the
	// whole stream.
	streams := 1
	if *mode == "fast" {
		streams = shards
	}
	aopts := core.Options{Passes: passes}
	accs := make([]*core.Analysis, streams)
	for s := range accs {
		accs[s] = core.NewAnalysisOpts(topo, 0, end, aopts)
	}
	a := accs[0]
	var sinks []*dataset.Sink
	if dw != nil {
		sinks = make([]*dataset.Sink, streams)
		for s := range sinks {
			sinks[s] = dw.NewSink()
		}
	}
	visit := func(s int, r *measure.Record) {
		accs[s].Add(r)
		if sinks != nil {
			sinks[s].Observe(r)
		}
	}

	started := time.Now()
	runSpan := reg.Span("run/" + *mode)
	if *mode == "fast" {
		err = measure.RunParallel(cfg, shards, visit)
	} else {
		err = measure.RunPacketParallel(cfg, shards, func(_ int, r *measure.Record) { visit(0, r) })
	}
	for _, acc := range accs[1:] {
		if err == nil {
			err = a.Merge(acc)
		}
	}
	runSpan.End()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	for _, sink := range sinks {
		if err := sink.Close(); err != nil {
			return fmt.Errorf("save: %w", err)
		}
	}
	cfg.Progress.Stop()
	elapsed := time.Since(started)
	if s := elapsed.Seconds(); s > 0 {
		reg.WallGauge("run_txns_per_sec").Set(float64(a.TotalTxns()) / s)
	}
	reg.Gauge("core_state_cells").Set(float64(a.StateCells()))
	fmt.Fprintf(stdout, "run completed in %v: %s\n\n", elapsed.Round(time.Millisecond), a)

	repSpan := reg.Span("report")
	rep := &report.Reporter{W: stdout, A: a, Topo: topo, Sc: sc, Seed: *seed}
	rep.Run(sel)
	repSpan.End()

	if dw != nil {
		closeSpan := reg.Span("dataset/close")
		if err := dw.Close(); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		if err := saveFile.Close(); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		closeSpan.End()
		fmt.Fprintf(stdout, "\ndataset written to %s (%d records in %d chunks)\n", *savePath, dw.Stored(), dw.Chunks())
	}
	if cfg.Trace != nil {
		if err := obsFlags.WriteTrace(cfg.Trace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ntrace written to %s (%d exemplars)\n", obsFlags.TraceOut, cfg.Trace.Len())
	}
	return nil
}
