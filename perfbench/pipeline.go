package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"webfail/internal/core"
	"webfail/internal/dataset"
	"webfail/internal/measure"
	"webfail/internal/obs"
	"webfail/internal/report"
)

// iteration is one timed set-up + pipeline pass and what it produced.
type iteration struct {
	traced bool
	rec    *recorder // nil when untraced
	root   int       // the "pipeline" span

	setup    time.Duration
	ref      time.Duration // the reference kernel run right before the set-up
	pipeline time.Duration // end of set-up to the last rendered byte, dataset closed
	runPhase time.Duration // simulate + merge + sink close, or ingest
	cpu      time.Duration
	peakRSS  float64
	allocMB  float64
	gcCycles uint32

	txns    int64 // transactions the pipeline covers
	records int64 // stored records written or read
	dsBytes int64 // dataset size on disk

	a          *core.Analysis
	stateCells int64
	engine     engineRun
	report     string // rendered-report digest
	stream     streamDigest
}

// engineRun is what one measure-layer run reports back: its counters
// and, when traced, where its time went.
type engineRun struct {
	reg     *obs.Registry
	rec     *recorder
	root    int
	run     int // the "measure.run" span
	skew    float64
	digests []streamDigest // stored (failed) records, per shard
}

func (e *engineRun) counter(name string) int64 { return e.reg.Counter(name).Value() }

// fastRun is cmd/webfail's runFastSharded: measure.RunParallel feeding
// one accumulator (none when accs is nil) and one dataset sink per shard,
// then the merges into a (when analysing) and the sink closes, in shard
// order. Traced, the visitor batches records and the shards' spans record
// where their time went.
func (e *engineRun) fastRun(cfg measure.Config, a *core.Analysis, accs []*core.Analysis, sinks []*dataset.Sink) error {
	rec, shards := e.rec, len(sinks)
	e.digests = make([]streamDigest, shards)
	cfg.Metrics = e.reg
	runStart := time.Now()
	e.run = rec.beginAt("measure.run", 0, e.root, runStart)
	var visit func(int, *measure.Record)
	var bats []*batcher
	if rec == nil {
		visit = func(s int, r *measure.Record) {
			if accs != nil {
				accs[s].Add(r)
			}
			_ = sinks[s].Observe(r) // errors are sticky and surface at Close
			if r.Failed() {
				e.digests[s].add(r)
			}
		}
	} else {
		bats = make([]*batcher, shards)
		for s := range bats {
			var steps []batchStep
			if accs != nil {
				steps = append(steps, batchStep{"core.add", accs[s].Add})
			}
			sink := sinks[s]
			steps = append(steps, batchStep{"dataset.observe", func(r *measure.Record) { _ = sink.Observe(r) }})
			bats[s] = newBatcher(rec, 1+s, rec.beginAt("measure.shard", 1+s, e.run, runStart), steps...)
		}
		visit = func(s int, r *measure.Record) {
			if r.Failed() {
				e.digests[s].add(r)
			}
			bats[s].visit(r)
		}
	}
	err := measure.RunParallel(cfg, shards, visit)
	if rec != nil {
		fastest, slowest := time.Duration(1<<62), time.Duration(0)
		for _, b := range bats {
			rec.endAt(b.parent, b.lastFlush)
			d := b.lastFlush.Sub(runStart)
			fastest, slowest = min(fastest, d), max(slowest, d)
		}
		if fastest > 0 {
			e.skew = float64(slowest) / float64(fastest)
		}
		rec.end(e.run)
		for _, b := range bats {
			b.flush(e.root)
		}
	}
	if err != nil {
		return fmt.Errorf("measure.RunParallel: %w", err)
	}
	for s := 0; s < shards; s++ {
		if a != nil {
			id := rec.begin("core.merge", 0, e.root)
			err := a.Merge(accs[s])
			rec.end(id)
			if err != nil {
				return fmt.Errorf("core.Merge: %w", err)
			}
		}
		id := rec.begin("dataset.close", 0, e.root)
		err := sinks[s].Close()
		rec.end(id)
		if err != nil {
			return fmt.Errorf("dataset.Sink.Close: %w", err)
		}
	}
	return nil
}

// packetRun is cmd/webfail's packet mode: measure.RunPacketParallel
// replays every shard's records in canonical order into one accumulator
// and one sink after the workers finish. Per-shard finish times are not
// observable from outside, so the shard skew stays 0.
func (e *engineRun) packetRun(cfg measure.Config, shards int, a *core.Analysis, sink *dataset.Sink) error {
	rec := e.rec
	e.digests = make([]streamDigest, shards)
	cfg.Metrics = e.reg
	e.run = rec.begin("measure.run", 0, e.root)
	var visit func(int, *measure.Record)
	var bat *batcher
	if rec == nil {
		visit = func(s int, r *measure.Record) {
			a.Add(r)
			_ = sink.Observe(r) // errors are sticky and surface at Close
			if r.Failed() {
				e.digests[s].add(r)
			}
		}
	} else {
		// One batcher for every shard: the replay is sequential, and the
		// single sink must see the shards' records in shard order.
		bat = newBatcher(rec, 0, e.run,
			batchStep{"core.add", a.Add},
			batchStep{"dataset.observe", func(r *measure.Record) { _ = sink.Observe(r) }})
		visit = func(s int, r *measure.Record) {
			if r.Failed() {
				e.digests[s].add(r)
			}
			bat.visit(r)
		}
	}
	err := measure.RunPacketParallel(cfg, shards, visit)
	if rec != nil {
		rec.end(e.run)
		bat.flush(e.root)
	}
	if err != nil {
		return fmt.Errorf("measure.RunPacketParallel: %w", err)
	}
	id := rec.begin("dataset.close", 0, e.root)
	err = sink.Close()
	rec.end(id)
	if err != nil {
		return fmt.Errorf("dataset.Sink.Close: %w", err)
	}
	return nil
}

// simulate is the live pipeline of `webfail -save`: the engine feeds the
// analyzer and the dataset, the shard accumulators merge, every artifact
// renders, and the dataset closes.
func (b *bench) simulate(st *stage, it *iteration) error {
	shards := measure.EffectiveShards(len(st.w.topo.Clients), b.shards)
	t0 := time.Now()
	it.root = it.rec.beginAt("pipeline", 0, -1, t0)
	it.engine = engineRun{reg: obs.NewRegistry(), rec: it.rec, root: it.root}
	e := &it.engine
	var err error
	if b.wl.packet {
		err = e.packetRun(st.w.config(), shards, st.a, st.dw.NewSink())
	} else {
		accs := make([]*core.Analysis, shards)
		sinks := make([]*dataset.Sink, shards)
		for s := range accs {
			accs[s] = core.NewAnalysisOpts(st.w.topo, st.w.start, st.w.end, core.Options{})
			sinks[s] = st.dw.NewSink()
		}
		err = e.fastRun(st.w.config(), st.a, accs, sinks)
	}
	if err != nil {
		return err
	}
	it.runPhase = time.Since(t0)
	it.a = st.a
	it.report = render(it.rec, it.root, st.w, st.a)

	id := it.rec.begin("dataset.close", 0, it.root)
	err = st.dw.Close()
	if cerr := st.file.Close(); err == nil {
		err = cerr
	}
	t1 := it.rec.end(id)
	it.rec.endAt(it.root, t1)
	it.pipeline = t1.Sub(t0)
	if err != nil {
		return fmt.Errorf("dataset.Writer.Close: %w", err)
	}
	it.txns = e.counter("measure_txns_total")
	it.records = st.dw.Stored()
	it.stream = concat(e.digests)
	return nil
}

// reanalyze is the timed part of `webfail-analyze -artifacts all`:
// parallel ingest of the stored dataset with every analyzer pass, then
// every artifact. Traced, the ingest is one core.ingest span, its reads
// and merges included; layerMetrics times those alone.
func (b *bench) reanalyze(st *stage, it *iteration) error {
	w := st.w
	t0 := time.Now()
	it.root = it.rec.beginAt("pipeline", 0, -1, t0)
	id := it.rec.begin("core.ingest", 0, it.root)
	a, err := core.ConsumeParallelOpts(w.topo, w.start, w.end, st.src, core.IngestOptions{Shards: b.shards})
	it.rec.end(id)
	if err != nil {
		return fmt.Errorf("core.ConsumeParallelOpts: %w", err)
	}
	it.runPhase = time.Since(t0)
	it.a = a
	it.report = render(it.rec, it.root, w, a)
	t1 := time.Now()
	it.rec.endAt(it.root, t1)
	it.pipeline = t1.Sub(t0)
	it.txns = st.src.Meta().Transactions
	it.records = st.src.Stored()
	return nil
}

// render runs report.Reporter over every artifact and returns the
// SHA-256 of the rendered bytes.
func render(rec *recorder, parent int, w *world, a *core.Analysis) string {
	id := rec.begin("report.render", 0, parent)
	h := sha256.New()
	rep := &report.Reporter{W: h, A: a, Topo: w.topo, Sc: w.sc, Seed: w.seed}
	rep.Run(nil)
	rec.end(id)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// generation is the stored dataset the chaos10k-reanalyze workload reads,
// written once per invocation before any timing.
type generation struct {
	path   string
	w      *world
	engine engineRun
	stored int64
	stream streamDigest
}

// generate writes the dataset with the live pipeline of `webfail -save`
// minus the analyzer, then checks the stored stream against the live one.
func (b *bench) generate(path string, traced bool) (*generation, error) {
	w, _, _, err := buildWorld(b.wl, b.seed, b.hours)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dw, err := dataset.NewWriter(f, w.meta(), dataset.Options{})
	if err != nil {
		return nil, fmt.Errorf("dataset.NewWriter: %w", err)
	}
	defer dw.Close() // stops the compression workers on error paths
	g := &generation{path: path, w: w}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	g.engine = engineRun{reg: obs.NewRegistry(), rec: rec, root: rec.begin("generate", 0, -1)}
	sinks := make([]*dataset.Sink, measure.EffectiveShards(len(w.topo.Clients), b.shards))
	for s := range sinks {
		sinks[s] = dw.NewSink()
	}
	if err := g.engine.fastRun(w.config(), nil, nil, sinks); err != nil {
		return nil, err
	}
	id := rec.begin("dataset.close", 0, g.engine.root)
	err = dw.Close()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	rec.end(id)
	rec.end(g.engine.root)
	if err != nil {
		return nil, fmt.Errorf("dataset.Writer.Close: %w", err)
	}
	g.stored = dw.Stored()
	g.stream = concat(g.engine.digests)
	return g, nil
}
