// Command perfbench is the repository benchmark. It drives the
// generate → simulate → save → analyze → render pipeline in one process,
// calling the same public layer functions cmd/webfail and
// cmd/webfail-analyze call, times each layer from outside around those
// calls, checks every run's outputs, and prints one JSON result line.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//	          [--trace-out PATH] [--tmp DIR]
//
// Workloads, each one closed batch job per iteration:
//
//	paper-day           paper-default, 24 h, fast engine, live analysis,
//	                    v3 save, all 18 artifacts
//	chaos10k-reanalyze  a 10k-chaos dataset (24 h) written once per
//	                    invocation, then timed: sharded ingest with every
//	                    analyzer pass and all 18 artifacts
//	packet-6h           paper-default on 32 clients x 32 sites, 6 h,
//	                    packet engine, live analysis, save, all artifacts
//
// --seed (default 2005) is the per-transaction sampling seed; every
// workload keeps the fault timeline of scenario seed 2005 (worldSeed).
// The held-out seed for re-checking a claimed gain is in layers.json.
//
// An invocation repeats set-up + pipeline iterations until --seconds have
// passed (at least one; two when traced), each right after one run of a
// fixed reference kernel (calibrate.go). --trace 0 reports the end-to-end
// metrics: medians over the iterations of the times in units of the
// kernel run before each (set-up read back as seconds, see endToEnd) and
// of the sizes. --trace 1 alternates untraced and traced iterations;
// the median traced iteration's spans are decomposed into per-layer self
// times, each layer is then timed alone, and the per-layer metrics are
// reported with the span file written as Chrome trace-event JSON. The
// run uses GOMAXPROCS=1 and 2 worker shards. The last stdout line is
//
//	{"correct": bool, "attempted": checks, "failed": failed checks, "metrics": {...}}
//
// and the exit code is 0 when every check passed, 1 when one failed and 2
// on a usage error (no result printed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

const (
	// gomaxprocs is 1 although the host has 2 CPUs: with two Ps the
	// shards, the compression workers and the collector contend for them,
	// and the same iteration's wall time spread by a third within one run
	// even while the host was otherwise quiet.
	gomaxprocs = 1
	shards     = 2 // worker shards of every engine run and ingest
	// warmSetups are set-ups timed before the first iteration (and torn
	// down): they warm the set-up's code paths, and the traced run's
	// scenario and workload medians take them in.
	warmSetups = 15
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+")")
	seed := fs.Int64("seed", 2005, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the iterations run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/perfbench-WORKLOAD-SEED.trace.json)")
	tmp := fs.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for the run's datasets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err == nil && *seconds < 0 {
		err = fmt.Errorf("--seconds must not be negative")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b := newBench(wl, *seed, *trace == 1, stderr)
	b.seconds = time.Duration(*seconds * float64(time.Second))
	b.tmp = *tmp
	b.traceOut = *traceOut
	if b.traceOut == "" {
		b.traceOut = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d.trace.json", wl.name, *seed))
	}
	return b.main(stdout)
}

// newBench returns an invocation of wl over the workload's own horizon
// with the benchmark's shard count; the tests shorten the one and vary
// the other.
func newBench(wl benchWorkload, seed int64, traced bool, log io.Writer) *bench {
	return &bench{wl: wl, seed: seed, hours: wl.hours, shards: shards, traced: traced, checks: tally{log: log}}
}

// main runs the invocation, prints its result and returns the exit code.
func (b *bench) main(stdout io.Writer) int {
	runtime.GOMAXPROCS(gomaxprocs)
	metrics := b.run()
	b.print(stdout, metrics)
	if b.checks.failed > 0 {
		return 1
	}
	return 0
}

// bench is one benchmark invocation.
type bench struct {
	wl       benchWorkload
	seed     int64
	hours    int64 // horizon
	shards   int
	traced   bool
	seconds  time.Duration
	tmp      string
	traceOut string

	checks tally
	prov   provenance
	setups []setupTimes // every timed set-up
	iters  []*iteration
	gen    *generation
	last   *stage // the latest iteration's stage; its dataset is kept
	temps  []string
}

// setupTimes is one timed set-up: the scenario layer, the workload layer
// and the whole set-up.
type setupTimes struct{ compile, build, total time.Duration }

func (b *bench) tmpPath(tag string) string {
	p := filepath.Join(b.tmp, fmt.Sprintf("%s-%d-%s.wfds", b.wl.name, os.Getpid(), tag))
	b.temps = append(b.temps, p)
	return p
}

// run executes the invocation and returns its metrics by name.
func (b *bench) run() map[string]float64 {
	b.prov = hostProvenance()
	defer func() {
		for _, p := range b.temps {
			os.Remove(p)
		}
	}()
	if !b.checks.errCheck("tmp", os.MkdirAll(b.tmp, 0o755)) {
		return nil
	}
	if b.wl.reanalyze {
		g, err := b.generate(b.tmpPath("stored"), b.traced)
		if !b.checks.errCheck("generate", err) {
			return nil
		}
		b.gen = g
		b.verifyGeneration()
		g.w = nil // the iterations build their own world; keep it out of their peak RSS
	}
	for i := 0; i < warmSetups; i++ {
		st, err := b.setup(fmt.Sprintf("warm%d", i))
		if !b.checks.errCheck("setup", err) {
			return nil
		}
		st.release(false)
	}
	start := time.Now()
	for i := 0; ; i++ {
		it := b.iterate(i, b.traced && i%2 == 1)
		if it == nil {
			break
		}
		b.iters = append(b.iters, it)
		if time.Since(start) >= b.seconds && (!b.traced || i >= 1) {
			break
		}
	}
	if len(b.iters) == 0 {
		return nil
	}
	b.describeRun()
	if b.traced {
		return b.layerMetrics()
	}
	return b.endToEnd()
}

// setup times one stage; the dataset path is fresh for a simulating
// workload and the generated dataset for a re-analysing one.
func (b *bench) setup(tag string) (*stage, error) {
	path := ""
	if b.wl.reanalyze {
		path = b.gen.path
	} else {
		path = b.tmpPath(tag)
	}
	st, err := setup(b.wl, b.seed, b.hours, path)
	if err == nil {
		b.setups = append(b.setups, setupTimes{st.compile, st.build, st.total})
	}
	return st, err
}

// dropState drops the accumulators and the dataset reader the
// iterations still hold.
func (b *bench) dropState() {
	for _, it := range b.iters {
		it.a = nil
	}
	if b.last != nil {
		b.last.a, b.last.src = nil, nil
	}
}

// iterate runs one set-up + pipeline iteration and checks its outputs.
// It returns nil when a layer call failed (a failed check). Only the
// latest iteration keeps its accumulator, so one iteration's memory
// never counts toward the next one's peak.
func (b *bench) iterate(i int, traced bool) *iteration {
	b.dropState()
	debug.FreeOSMemory() // the kernel starts from an empty heap, whatever the last iteration left
	ref := refKernel()
	b.prov.PeakRSSReset = settle()
	st, err := b.setup(fmt.Sprintf("it%d", i))
	if !b.checks.errCheck("setup", err) {
		return nil
	}
	it := &iteration{traced: traced, setup: st.total, ref: ref}
	if traced {
		it.rec = newRecorder()
	}
	cpu0, ms0 := cpuTime(), memStats()
	if b.wl.reanalyze {
		err = b.reanalyze(st, it)
	} else {
		err = b.simulate(st, it)
	}
	it.cpu = cpuTime() - cpu0
	ms1 := memStats()
	it.peakRSS = peakRSS()
	it.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mb
	it.gcCycles = ms1.NumGC - ms0.NumGC
	if !b.checks.errCheck("layers", err) {
		st.release(false)
		return nil
	}
	if b.last != nil && b.last != st {
		b.last.release(false)
	}
	b.last = st
	st.release(true)
	if fi, err := os.Stat(st.path); b.checks.errCheck("dataset size", err) {
		it.dsBytes = fi.Size()
	}
	b.verify(st, it)
	return it
}

// verify checks one iteration's outputs against the engine's counters,
// the live record stream and the first iteration of the invocation.
func (b *bench) verify(st *stage, it *iteration) {
	a := it.a
	it.stateCells = a.StateCells()
	if b.wl.reanalyze {
		g := b.gen
		b.checks.check("totals", a.TotalTxns() == g.stored && a.TotalFails() == g.stored && it.records == g.stored,
			"ingested %d txns / %d failures from %d stored records; the generation stored %d", a.TotalTxns(), a.TotalFails(), it.records, g.stored)
	} else {
		e := &it.engine
		txns, fails := e.counter("measure_txns_total"), e.counter("measure_failures_total")
		b.checks.check("totals", a.TotalTxns() == txns && a.TotalFails() == fails,
			"analysis saw %d txns / %d failures; the engine counted %d / %d", a.TotalTxns(), a.TotalFails(), txns, fails)
		src, closeSrc, err := openDataset(st.path)
		if b.checks.errCheck("reopen", err) {
			d, err := sourceDigest(src)
			if b.checks.errCheck("reload", err) {
				b.checks.check("stream", src.Stored() == it.records && d == it.stream,
					"reopened dataset holds %d records, digest %v; the live failure stream was %v", src.Stored(), d, it.stream)
			}
			b.checks.errCheck("meta", st.w.checkMeta(src.Meta(), txns, fails))
			closeSrc()
		}
	}
	if first := b.firstIteration(); first != nil {
		b.checks.check("repeat", it.report == first.report && it.stream == first.stream && it.txns == first.txns,
			"same seed, different outputs: report %s vs %s, stream %v vs %v", it.report, first.report, it.stream, first.stream)
	}
	if it.traced {
		var sum float64
		for _, v := range it.rec.selfTimes(it.root) {
			sum += v
		}
		p := it.pipeline.Seconds()
		b.checks.check("self times", math.Abs(sum-p) <= 1e-6*p+1e-9, "layer self times add up to %.9fs, pipeline %.9fs", sum, p)
	}
}

// verifyGeneration checks the stored dataset against the live stream
// and the engine's counters.
func (b *bench) verifyGeneration() {
	g := b.gen
	txns, fails := g.engine.counter("measure_txns_total"), g.engine.counter("measure_failures_total")
	src, closeSrc, err := openDataset(g.path)
	if !b.checks.errCheck("reopen", err) {
		return
	}
	defer closeSrc()
	d, err := sourceDigest(src)
	if b.checks.errCheck("reload", err) {
		b.checks.check("stream", src.Stored() == g.stored && d == g.stream && g.stored == fails,
			"reopened dataset holds %d records, digest %v; the live failure stream was %v (%d failures)", src.Stored(), d, g.stream, fails)
	}
	b.checks.errCheck("meta", g.w.checkMeta(src.Meta(), txns, fails))
}

// describeRun fills the provenance fields that describe this run.
func (b *bench) describeRun() {
	w, it := b.last.w, b.iters[0]
	b.prov.Workload, b.prov.Scenario, b.prov.SpecHash = b.wl.name, w.spec.Name, w.spec.ShortHash()
	b.prov.Seed, b.prov.RunSeed, b.prov.HorizonHours = w.seed, w.runSeed, b.hours
	b.prov.Clients, b.prov.Websites = len(w.topo.Clients), len(w.topo.Websites)
	b.prov.Transactions, b.prov.Records = it.txns, it.records
	b.prov.Shards, b.prov.Iterations, b.prov.Traced = b.shards, len(b.iters), b.traced
}

func (b *bench) firstIteration() *iteration {
	if len(b.iters) == 0 {
		return nil
	}
	return b.iters[0]
}

// endToEnd reports the end-to-end metrics. Each iteration's wall time,
// CPU time and run-phase throughput are taken in units of the reference
// kernel run right before it (one "ref", calibrate.go), and the ratios'
// medians reported. setup_s is the median of the iterations' set-ups in
// refs, read back as seconds at refSeconds a ref; the sizes are medians.
func (b *bench) endToEnd() map[string]float64 {
	var setupS, pipe, cpu, tput, rss, ds []float64
	for _, it := range b.iters {
		ref := it.ref.Seconds()
		setupS = append(setupS, it.setup.Seconds()/ref*refSeconds)
		pipe = append(pipe, it.pipeline.Seconds()/ref)
		cpu = append(cpu, it.cpu.Seconds()/ref)
		tput = append(tput, float64(it.txns)*ref/it.runPhase.Seconds())
		rss = append(rss, it.peakRSS/mb)
		ds = append(ds, float64(it.dsBytes)/mb)
	}
	return map[string]float64{
		"setup_s": median(setupS), "pipeline_ref": median(pipe), "cpu_ref": median(cpu),
		"txns_per_ref": median(tput), "peak_rss_mb": median(rss), "dataset_mb": median(ds),
	}
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// print writes the human-readable block (provenance, every metric with
// its unit, the checks) and, last, the JSON result line.
func (b *bench) print(w io.Writer, values map[string]float64) {
	defs := endToEndMetrics
	if b.traced {
		defs = perLayerMetrics
	}
	prov, _ := json.Marshal(b.prov)
	fmt.Fprintf(w, "perfbench: workload %s, seed %d, %d iteration(s), trace %v\n", b.wl.name, b.seed, len(b.iters), b.traced)
	fmt.Fprintf(w, "provenance: %s\n", prov)
	for i, it := range b.iters {
		fmt.Fprintf(w, "  iteration %d (traced %v): setup %.6fs pipeline %.6fs cpu %.6fs peak RSS %.1f MB ref %.6fs\n",
			i, it.traced, it.setup.Seconds(), it.pipeline.Seconds(), it.cpu.Seconds(), it.peakRSS/mb, it.ref.Seconds())
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	if values != nil {
		for _, d := range defs {
			v, ok := values[d.name]
			if !b.checks.check("metric "+d.name, ok && !math.IsNaN(v) && !math.IsInf(v, 0), "not measured (%v)", v) {
				continue
			}
			out[d.name] = value{v, d.unit}
			fmt.Fprintf(w, "  %-34s %16.6f %s\n", d.name, v, d.unit)
		}
	}
	if b.checks.run == 0 {
		b.checks.check("run", false, "nothing was checked")
	}
	fmt.Fprintf(w, "checks: %d run, %d failed (error_rate %g)\n", b.checks.run, b.checks.failed,
		float64(b.checks.failed)/float64(b.checks.run))
	res, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.checks.failed == 0, b.checks.run, b.checks.failed, out})
	fmt.Fprintf(w, "%s\n", res)
}
