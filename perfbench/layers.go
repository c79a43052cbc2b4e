package main

import (
	"cmp"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"webfail/internal/bgpsim"
	"webfail/internal/core"
	"webfail/internal/dataset"
	"webfail/internal/measure"
	"webfail/internal/obs"
	"webfail/internal/report"
	"webfail/internal/simnet"
)

// metricDef names one reported metric and its unit. The two lists are
// the ones BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"pipeline_ref", "ref"}, {"cpu_ref", "ref"},
	{"txns_per_ref", "1/ref"}, {"peak_rss_mb", "MB"}, {"dataset_mb", "MB"},
}

// selfLayers are the layers the traced pipeline's wall time decomposes
// into; "bench" is the harness's own time between layer calls.
var selfLayers = []string{"measure", "core", "dataset", "report", "bench"}

var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"scenario.compile_s", "s"}, {"workload.build_s", "s"}, {"workload.episodes", "count"},
		{"measure.run_s", "s"}, {"measure.self_s", "s"}, {"measure.ns_per_txn", "ns/txn"},
		{"measure.allocs_per_txn", "allocs/txn"}, {"measure.shard_skew", "ratio"},
		{"measure.txns", "count"}, {"measure.failures", "count"}, {"measure.skipped", "count"},
		{"measure.episodes_scanned", "count"},
		{"simnet.events", "count"}, {"simnet.events_per_txn", "events/txn"},
		{"trace.packets_per_txn", "packets/txn"}, {"trace.retransmits", "count"},
		{"core.add_ns_per_record", "ns/record"}, {"core.merge_s", "s"}, {"core.ingest_ns_per_record", "ns/record"},
	}
	for _, p := range core.AllPasses() {
		defs = append(defs, metricDef{"core.pass." + string(p) + ".ingest_s", "s"})
	}
	defs = append(defs,
		metricDef{"core.state_cells", "count"}, metricDef{"core.heap_mb", "MB"},
		metricDef{"core.permanent_pairs_s", "s"}, metricDef{"core.attribute_s", "s"},
		metricDef{"core.similarity_s", "s"}, metricDef{"core.replicas_s", "s"},
		metricDef{"core.validate_s", "s"}, metricDef{"core.bgp_correlate_s", "s"},
		metricDef{"bgpsim.generate_s", "s"},
		metricDef{"dataset.save_s", "s"}, metricDef{"dataset.save_allocs_per_record", "allocs/record"},
		metricDef{"dataset.open_s", "s"}, metricDef{"dataset.load_s", "s"},
		metricDef{"dataset.load_allocs_per_record", "allocs/record"},
		metricDef{"dataset.bytes_per_record", "B/record"}, metricDef{"dataset.chunks", "count"},
		metricDef{"report.render_s", "s"},
	)
	for _, art := range report.KnownArtifacts() {
		defs = append(defs, metricDef{"report." + art + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"runtime.alloc_mb", "MB"}, metricDef{"runtime.gc_cycles", "count"},
		metricDef{"bench.pipeline_s", "s"}, metricDef{"bench.trace_overhead", "ratio"},
		metricDef{"bench.ref_s", "s"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self." + l + "_s", "s"})
	}
	return defs
}()

const (
	// Engine allocation probes run the workload's engine alone, with a
	// no-op visitor, over the first hours of the window.
	fastProbeHours   = 24
	packetProbeHours = 4
	// probeRecords bounds the stored records re-saved alone to count the
	// dataset writer's allocations and, on a re-analysis, added alone to
	// time core.Analysis.Add.
	probeRecords = 1 << 16
	opens        = 3
)

// medianIteration returns the iteration with the median pipeline time
// among the traced (or untraced) ones.
func (b *bench) medianIteration(traced bool) *iteration {
	var its []*iteration
	for _, it := range b.iters {
		if it.traced == traced {
			its = append(its, it)
		}
	}
	if len(its) == 0 {
		return nil
	}
	slices.SortFunc(its, func(x, y *iteration) int { return cmp.Compare(x.pipeline, y.pipeline) })
	return its[(len(its)-1)/2]
}

// layerMetrics reports the per-layer metrics of a traced invocation: the
// decomposition of the median traced iteration, the counters of its
// engine run, and each layer's calls timed alone.
func (b *bench) layerMetrics() map[string]float64 {
	ti, ut := b.medianIteration(true), b.medianIteration(false)
	if ti == nil || ut == nil {
		return nil // an iteration failed; the failed check is the result
	}
	m := map[string]float64{}
	var compile, build []float64
	for _, s := range b.setups {
		compile, build = append(compile, s.compile.Seconds()), append(build, s.build.Seconds())
	}
	m["scenario.compile_s"], m["workload.build_s"] = median(compile), median(build)
	w := b.last.w
	m["workload.episodes"] = float64(w.sc.Timeline.Len())

	m["bench.pipeline_s"] = ti.pipeline.Seconds()
	m["bench.trace_overhead"] = ti.pipeline.Seconds()/ut.pipeline.Seconds() - 1
	var refs []float64
	for _, it := range b.iters {
		refs = append(refs, it.ref.Seconds())
	}
	m["bench.ref_s"] = median(refs)
	self := ti.rec.selfTimes(ti.root)
	for _, l := range selfLayers {
		m["self."+l+"_s"] = self[l]
	}
	m["report.render_s"] = ti.rec.total("report.render").Seconds()
	m["runtime.alloc_mb"], m["runtime.gc_cycles"] = ut.allocMB, float64(ut.gcCycles)
	m["core.state_cells"] = float64(ti.stateCells)
	// Every live record goes through core.Analysis.Add; a re-analysis
	// times Add alone (coreLayer).
	m["core.add_ns_per_record"] = nsPer(ti.rec.total("core.add"), ti.txns)
	m["core.merge_s"] = ti.rec.total("core.merge").Seconds()

	// The measure layer and the dataset writer: the pipeline's engine run,
	// or the generation's when the pipeline only reads.
	e := &ti.engine
	if b.wl.reanalyze {
		e = &b.gen.engine
	}
	txns := e.counter("measure_txns_total")
	m["measure.run_s"] = e.rec.duration(e.run).Seconds()
	m["measure.self_s"] = e.rec.selfTimes(e.root)["measure"]
	m["measure.ns_per_txn"] = m["measure.self_s"] * 1e9 / float64(txns)
	m["measure.shard_skew"] = e.skew
	m["measure.txns"] = float64(txns)
	m["measure.failures"] = float64(e.counter("measure_failures_total"))
	m["measure.skipped"] = float64(e.counter("measure_txns_skipped_total"))
	m["measure.episodes_scanned"] = float64(e.counter("measure_episodes_scanned_total"))
	m["simnet.events"] = float64(e.counter("simnet_events_dispatched_total"))
	m["simnet.events_per_txn"] = m["simnet.events"] / float64(txns)
	m["dataset.save_s"] = (e.rec.total("dataset.observe") + e.rec.total("dataset.close")).Seconds()

	path := b.last.path
	probe := b.datasetLayer(m, path)
	b.coreLayer(m, path, probe, ti.rec.total("core.merge") == 0)
	b.engineLayer(m, ti)
	b.analysesAndReport(m)

	recs := []*recorder{ti.rec}
	if b.gen != nil && b.gen.engine.rec != nil {
		recs = append(recs, b.gen.engine.rec)
	}
	err := os.MkdirAll(filepath.Dir(b.traceOut), 0o755)
	if err == nil {
		err = writeChrome(b.traceOut, b.prov, recs...)
	}
	b.checks.errCheck("span file", err)
	return m
}

func nsPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// datasetLayer times the reader alone — open, a full read with a no-op
// visitor — and the writer alone over the first stored records, which it
// returns as the probe records (nil when a call failed).
func (b *bench) datasetLayer(m map[string]float64, path string) []measure.Record {
	var openTimes []float64
	for i := 0; i < opens; i++ {
		f, err := os.Open(path)
		if !b.checks.errCheck("dataset open", err) {
			return nil
		}
		fi, err := f.Stat()
		t := time.Now()
		if err == nil {
			_, err = dataset.Open(f, fi.Size())
		}
		openTimes = append(openTimes, time.Since(t).Seconds())
		f.Close()
		if !b.checks.errCheck("dataset open", err) {
			return nil
		}
	}
	m["dataset.open_s"] = median(openTimes)

	f, err := os.Open(path)
	if !b.checks.errCheck("dataset load", err) {
		return nil
	}
	defer f.Close()
	fi, err := f.Stat()
	if !b.checks.errCheck("dataset load", err) {
		return nil
	}
	reg := obs.NewRegistry()
	src, err := dataset.Open(f, fi.Size(), dataset.WithMetrics(reg))
	if !b.checks.errCheck("dataset load", err) {
		return nil
	}
	stored := src.Stored()
	ms0, t := memStats(), time.Now()
	err = dataset.AllRecords(src, func(*measure.Record) error { return nil })
	d, ms1 := time.Since(t), memStats()
	if !b.checks.errCheck("dataset load", err) {
		return nil
	}
	m["dataset.load_s"] = d.Seconds()
	m["dataset.load_allocs_per_record"] = perRecord(ms1.Mallocs-ms0.Mallocs, stored)
	m["dataset.chunks"] = float64(reg.Counter("dataset_chunks_read_total").Value())
	m["dataset.bytes_per_record"] = float64(fi.Size()) / float64(max(stored, 1))

	var recs []measure.Record
	err = dataset.AllRecords(src, func(r *measure.Record) error {
		if len(recs) < probeRecords {
			recs = append(recs, *r)
		}
		return nil
	})
	if !b.checks.errCheck("dataset save probe", err) {
		return nil
	}
	ms0 = memStats()
	dw, err := dataset.NewWriter(io.Discard, src.Meta(), dataset.Options{})
	if err == nil {
		sink := dw.NewSink()
		for i := range recs {
			_ = sink.Observe(&recs[i]) // errors are sticky and surface at Close
		}
		err = sink.Close()
		if cerr := dw.Close(); err == nil {
			err = cerr
		}
	}
	ms1 = memStats()
	if !b.checks.errCheck("dataset save probe", err) {
		return nil
	}
	m["dataset.save_allocs_per_record"] = perRecord(ms1.Mallocs-ms0.Mallocs, int64(len(recs)))
	return recs
}

func perRecord(allocs uint64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(allocs) / float64(n)
}

// coreLayer times ingest alone: each analyzer pass by itself, then every
// pass together with the heap the accumulator retains. When the pipeline
// timed no Add (a re-analysis ingests in one span), Add is timed alone
// over the probe records; when it timed no merge, the merges are timed
// alone.
func (b *bench) coreLayer(m map[string]float64, path string, probe []measure.Record, mergeAlone bool) {
	src, closeSrc, err := openDataset(path)
	if !b.checks.errCheck("core ingest", err) {
		return
	}
	defer closeSrc()
	w := b.last.w
	ingest := func(passes ...core.PassName) (*core.Analysis, time.Duration, error) {
		t := time.Now()
		a, err := core.ConsumeParallelOpts(w.topo, w.start, w.end, src, core.IngestOptions{Shards: b.shards, Passes: passes})
		return a, time.Since(t), err
	}
	for _, p := range core.AllPasses() {
		_, d, err := ingest(p)
		if !b.checks.errCheck("core ingest "+string(p), err) {
			return
		}
		m["core.pass."+string(p)+".ingest_s"] = d.Seconds()
	}
	h0 := liveHeap()
	a, d, err := ingest()
	h1 := liveHeap()
	if !b.checks.errCheck("core ingest", err) {
		return
	}
	m["core.ingest_ns_per_record"] = nsPer(d, src.Stored())
	m["core.heap_mb"] = (float64(h1) - float64(h0)) / mb
	txns, fails, cells := a.TotalTxns(), a.TotalFails(), a.StateCells()

	if b.wl.reanalyze {
		acc := core.NewAnalysisOpts(w.topo, w.start, w.end, core.Options{})
		t := time.Now()
		for i := range probe {
			acc.Add(&probe[i])
		}
		m["core.add_ns_per_record"] = nsPer(time.Since(t), int64(len(probe)))
	}
	if !mergeAlone {
		return
	}
	// The shard accumulators ConsumeParallelOpts would merge, each built
	// by Consume over its shard's client range, merged in shard order.
	n := len(w.topo.Clients)
	k := measure.EffectiveShards(n, b.shards)
	merged := core.NewAnalysisOpts(w.topo, w.start, w.end, core.Options{})
	var merge time.Duration
	for s := 0; s < k; s++ {
		lo, hi := measure.ShardRange(n, k, s)
		acc := core.NewAnalysisOpts(w.topo, w.start, w.end, core.Options{})
		if !b.checks.errCheck("core merge", acc.Consume(clientRange{src, lo, hi})) {
			return
		}
		t := time.Now()
		err := merged.Merge(acc)
		merge += time.Since(t)
		if !b.checks.errCheck("core merge", err) {
			return
		}
	}
	b.checks.check("core merge", merged.TotalTxns() == txns && merged.TotalFails() == fails && merged.StateCells() == cells,
		"merged shards hold %d txns / %d failures / %d cells; the ingest %d / %d / %d",
		merged.TotalTxns(), merged.TotalFails(), merged.StateCells(), txns, fails, cells)
	m["core.merge_s"] = merge.Seconds()
}

// clientRange is a stored dataset restricted to the clients [lo, hi).
type clientRange struct {
	dataset.RecordSource
	lo, hi int
}

func (c clientRange) Records(lo, hi int, visit func(*measure.Record) error) error {
	lo, hi = max(lo, c.lo), min(hi, c.hi)
	if lo >= hi {
		return nil
	}
	return c.RecordSource.Records(lo, hi, visit)
}

// engineLayer counts the engine's allocations alone over a probe window
// and, for the packet engine, captures two clients' packets with
// measure.RunPacketWithCapture — a serial run whose stored stream must
// equal the sharded pipeline's.
func (b *bench) engineLayer(m map[string]float64, ti *iteration) {
	w := b.last.w
	probe := *w
	hours := int64(fastProbeHours)
	if b.wl.packet {
		hours = packetProbeHours
	}
	probe.end = min(w.end, simnet.FromHours(hours))
	reg := obs.NewRegistry()
	cfg := probe.config()
	cfg.Metrics = reg
	noop := func(int, *measure.Record) {}
	var err error
	ms0 := memStats()
	if b.wl.packet {
		err = measure.RunPacketParallel(cfg, b.shards, noop)
	} else {
		err = measure.RunParallel(cfg, b.shards, noop)
	}
	ms1 := memStats()
	if b.checks.errCheck("engine probe", err) {
		m["measure.allocs_per_txn"] = perRecord(ms1.Mallocs-ms0.Mallocs, reg.Counter("measure_txns_total").Value())
	}

	m["trace.packets_per_txn"], m["trace.retransmits"] = 0, 0
	if !b.wl.packet {
		return
	}
	mon := []int32{0, int32(len(w.topo.Clients) / 2)}
	names := []string{w.topo.Clients[mon[0]].Name, w.topo.Clients[mon[1]].Name}
	var stream streamDigest
	var monTxns int64
	var packets, retrans int
	err = measure.RunPacketWithCapture(w.config(), names, func(r *measure.Record) {
		if r.Failed() {
			stream.add(r)
		}
		if r.ClientIdx == mon[0] || r.ClientIdx == mon[1] {
			monTxns++
		}
	}, func(cr measure.CaptureResult) {
		packets += cr.Packets
		for _, fs := range cr.Flows {
			retrans += fs.ClientRetransmits + fs.ServerRetransmits
		}
	})
	if !b.checks.errCheck("packet capture", err) {
		return
	}
	b.checks.check("serial stream", stream == ti.stream, "serial capture run stored %v, the sharded pipeline %v", stream, ti.stream)
	m["trace.packets_per_txn"] = float64(packets) / float64(max(monTxns, 1))
	m["trace.retransmits"] = float64(retrans)
}

// analysesAndReport times the core analyses and the BGP generator as
// direct calls on the final iteration's accumulator, then renders each
// artifact alone with a fresh reporter.
func (b *bench) analysesAndReport(m map[string]float64) {
	a, w := b.iters[len(b.iters)-1].a, b.last.w
	timed := func(name string, f func()) {
		t := time.Now()
		f()
		m[name] = time.Since(t).Seconds()
	}
	var pairs []core.PermanentPair
	var at *core.Attribution
	var table bgpsim.PrefixHourTable
	timed("core.permanent_pairs_s", func() { pairs = a.PermanentPairs(0.9) })
	timed("core.attribute_s", func() { at = a.Attribute(0.05, pairs) })
	timed("core.similarity_s", func() {
		co, _ := a.CoLocatedSimilarityTop(at, 8)
		a.RandomPairSimilarity(at, w.seed, co.Pairs)
	})
	timed("core.replicas_s", func() { a.ReplicaAnalysis(at, a.ReplicaCensusDefault()) })
	timed("core.validate_s", func() {
		a.ValidateAttribution(at, w.sc)
		a.DetectedPermanentBlocks(pairs, w.sc, w.topo)
	})
	timed("bgpsim.generate_s", func() { table, _ = core.GenerateBGP(w.topo, w.sc, w.seed^0x6b67) })
	timed("core.bgp_correlate_s", func() { a.CorrelateBGP(table) })
	for _, art := range report.KnownArtifacts() {
		timed("report."+art+"_s", func() {
			rep := &report.Reporter{W: io.Discard, A: a, Topo: w.topo, Sc: w.sc, Seed: w.seed}
			rep.Run(map[string]bool{art: true})
		})
	}
}
