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
// blamed fault entity on each failing span. -trace-out additionally
// exports the replayed exemplars as Chrome trace-event JSON.
//
// The ingest into the core analysis accumulator is sharded across
// -parallel workers: each worker opens only the dataset chunks
// overlapping its client range (the dataset index records each chunk's
// client range), and the shard accumulators merge deterministically —
// the output is identical for any shard count.
//
// The default summary needs only the totals and traffic analyzer
// passes, so only those accumulate during ingest. -artifacts selects
// paper artifacts (table1..table9, fig1..fig7, replicas, headlines, or
// "all") to render from the stored records; the selection propagates
// down to ingest, so unselected analyzer passes are never constructed.
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
	"sort"
	"strings"
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
	sel := parseArtifacts(*artifacts)
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

	report.DatasetInfo(stdout, meta, src.Stored())

	if *forensics != "" {
		return runForensics(stdout, stderr, meta, spec, topo, *forensics, &obsFlags)
	}

	// The default summary reads only grand totals and the per-category
	// traffic breakdown; a report selection widens the pass set to
	// whatever its artifacts require.
	passes := []core.PassName{core.PassTotals, core.PassTraffic}
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
	for _, row := range a.Summary() {
		if row.FailTxns == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-8v fails=%8d DNS=%5.1f%% TCP=%5.1f%% HTTP=%5.1f%%\n",
			row.Category, row.FailTxns, 100*row.DNSShare, 100*row.TCPShare, 100*row.HTTPShare)
	}
	fmt.Fprintln(stdout)

	byStage := map[httpsim.Stage]int{}
	byCat := map[workload.Category]int{}
	byClient := map[int32]int{}
	bySite := map[int32]int{}
	byPair := map[[2]int32]int{}
	byHour := map[int64]int{}
	scanSpan := reg.Span("scan")
	err = dataset.AllRecords(src, func(r *measure.Record) error {
		if !r.Failed() {
			return nil
		}
		byStage[r.Stage]++
		byCat[r.Category]++
		byClient[r.ClientIdx]++
		bySite[r.SiteIdx]++
		byPair[[2]int32{r.ClientIdx, r.SiteIdx}]++
		byHour[r.At.Hour()]++
		return nil
	})
	scanSpan.End()
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "failures by stage:")
	for _, st := range []httpsim.Stage{httpsim.StageDNS, httpsim.StageTCP, httpsim.StageHTTP} {
		fmt.Fprintf(stdout, "  %-8s %8d\n", st, byStage[st])
	}
	fmt.Fprintln(stdout, "failures by category:")
	for _, c := range []workload.Category{workload.PL, workload.BB, workload.DU, workload.CN} {
		fmt.Fprintf(stdout, "  %-8v %8d\n", c, byCat[c])
	}

	fmt.Fprintf(stdout, "\ntop %d failing clients:\n", *top)
	for _, kv := range topN(byClient, *top) {
		name := "?"
		if int(kv.k) < len(topo.Clients) {
			name = topo.Clients[kv.k].Name
		}
		fmt.Fprintf(stdout, "  %-50s %8d\n", name, kv.v)
	}
	fmt.Fprintf(stdout, "\ntop %d failing servers:\n", *top)
	for _, kv := range topN(bySite, *top) {
		name := "?"
		if int(kv.k) < len(topo.Websites) {
			name = topo.Websites[kv.k].Host
		}
		fmt.Fprintf(stdout, "  %-50s %8d\n", name, kv.v)
	}

	fmt.Fprintf(stdout, "\ntop %d failing pairs:\n", *top)
	type pairN struct {
		k [2]int32
		v int
	}
	var pairs []pairN
	for k, v := range byPair {
		pairs = append(pairs, pairN{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		if pairs[i].k[0] != pairs[j].k[0] {
			return pairs[i].k[0] < pairs[j].k[0]
		}
		return pairs[i].k[1] < pairs[j].k[1]
	})
	for i, p := range pairs {
		if i >= *top {
			break
		}
		cn, sn := "?", "?"
		if int(p.k[0]) < len(topo.Clients) {
			cn = topo.Clients[p.k[0]].Name
		}
		if int(p.k[1]) < len(topo.Websites) {
			sn = topo.Websites[p.k[1]].Host
		}
		fmt.Fprintf(stdout, "  %-40s x %-24s %6d\n", cn, sn, p.v)
	}

	// Worst hours.
	fmt.Fprintf(stdout, "\nworst %d hours by failure count:\n", *top)
	type hourN struct {
		h int64
		v int
	}
	var hs []hourN
	for h, v := range byHour {
		hs = append(hs, hourN{h, v})
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].v != hs[j].v {
			return hs[i].v > hs[j].v
		}
		return hs[i].h < hs[j].h
	})
	for i, h := range hs {
		if i >= *top {
			break
		}
		fmt.Fprintf(stdout, "  hour %4d: %6d failures\n", h.h, h.v)
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
// the blamed entity from the fault ground truth. The replay is exact:
// fast mode is deterministic in (topology, scenario, run seed), all of
// which the dataset records.
func runForensics(stdout, stderr io.Writer, meta measure.DatasetMeta, spec *scenario.Spec, topo *workload.Topology, class string, obsFlags *obs.CLIFlags) error {
	if _, err := measure.ParseTraceClass(class); err != nil {
		return err
	}
	runSeed := meta.RunSeed
	if runSeed == 0 {
		// Datasets written before RunSeed metadata existed decode to 0;
		// the CLI default has always been 1.
		runSeed = 1
		fmt.Fprintln(stderr, "webfail-analyze: dataset predates run-seed metadata; replaying with the default seed 1")
	}
	start := simnet.FromUnix(meta.StartUnix)
	end := simnet.FromUnix(meta.EndUnix)
	params, err := spec.Params(meta.Seed, start, end)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	sc := workload.BuildScenario(topo, params)
	tracer := obs.NewTracer(obsFlags.TraceExemplars)
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: runSeed, Start: start, End: end, Trace: tracer}
	if err := measure.Run(cfg, func(*measure.Record) {}); err != nil {
		return fmt.Errorf("forensics replay: %w", err)
	}

	exs := tracer.Exemplars(class)
	fmt.Fprintf(stdout, "forensics: %d exemplar(s) of class %s (fast-mode replay, run seed %d)\n\n", len(exs), class, runSeed)
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

// parseArtifacts splits an -artifacts list into a report selection.
// "all" maps to the empty selection, which report.Run and
// report.PassesFor treat as "everything".
func parseArtifacts(list string) map[string]bool {
	sel := map[string]bool{}
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(strings.ToLower(s))
		if s == "" || s == "all" {
			continue
		}
		sel[s] = true
	}
	return sel
}

type kv struct {
	k int32
	v int
}

func topN(m map[int32]int, n int) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].v != out[j].v {
			return out[i].v > out[j].v
		}
		return out[i].k < out[j].k
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
