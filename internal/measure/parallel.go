package measure

import (
	"runtime"
	"sync"
	"time"

	"webfail/internal/obs"
	"webfail/internal/workload"
)

// RunParallel executes the experiment in fast mode across shards worker
// goroutines, partitioning the client roster into contiguous index ranges.
// Each worker runs its own evaluator over its client subset, which is
// sound because every client owns independent RNG streams for both
// scheduling (workload.ForEachTransactionRange) and outcome sampling (one
// rand.Rand per client in the evaluator): a client's records are
// byte-identical for any shard count.
//
// visit is called once per performed transaction with the worker's shard
// index. Calls may arrive concurrently from different shards, but within a
// shard they are sequential and in per-client time order — feed one private
// accumulator per shard (e.g. a core.Analysis each, merged afterwards with
// Analysis.Merge in shard order) to recover output identical to a
// one-shard run. visit must not retain the Record pointer.
//
// shards <= 0 selects runtime.GOMAXPROCS(0); the count is clamped to the
// roster size.
func RunParallel(cfg Config, shards int, visit func(shard int, r *Record)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := len(cfg.Topo.Clients)
	shards = EffectiveShards(n, shards)
	bounds := make([]int, shards+1)
	for s := range bounds {
		bounds[s], _ = ShardRange(n, shards, s)
	}
	return runShards(cfg, bounds, func(sh *shard) {
		ev := newEvaluator(cfg, sh)
		// One Record per worker, reused across its transactions (visit
		// must not retain the pointer, and evaluate fully overwrites it),
		// so the hot loop stays allocation-free.
		var rec Record
		workload.ForEachTransactionRange(cfg.Topo, cfg.Seed, cfg.Start, cfg.End, sh.lo, sh.hi, func(tx *workload.Transaction) {
			if ev.evaluate(tx, &rec) {
				visit(sh.index, &rec)
			}
		})
		cfg.Metrics.Counter("measure_episodes_scanned_total").Add(ev.episodes)
	})
}

// shard is one worker's part of a run: a contiguous client range, the
// run's entity table (shared read-only by every shard), and the census
// and exemplar sink the worker owns.
type shard struct {
	index  int
	lo, hi int // client range [lo, hi)
	ids    *workload.EntityTable
	census census
	// trace is the shard's exemplar sink, nil when tracing is off.
	trace *obs.Tracer
}

// census is one shard's deterministic work count. The engine updates it
// with plain integer writes from the shard's goroutine, and runShards
// folds it into the run registry once, when the shard is done, so
// counting costs the hot path neither allocations nor atomics and the
// folded totals are the same for any shard count.
type census struct {
	txns    int64 // transactions performed (client machine on)
	skipped int64 // transactions skipped (client machine off)
	fails   int64 // performed transactions that failed at any stage
	lat     latencyScratch
	// prog ticks once per scheduled transaction (performed or skipped,
	// matching workload.ExpectedTransactions) for the live reporter.
	prog *obs.ShardCounter
}

// performed counts one performed transaction of the given class and
// end-to-end latency.
func (c *census) performed(r *Record, class TraceClass, latency time.Duration) {
	c.txns++
	if r.Failed() {
		c.fails++
	}
	c.lat.observe(class, latency)
}

// fold publishes the last progress batch and adds the census to reg.
// The registry's counters are atomic, so concurrent shard folds are
// safe.
func (c *census) fold(reg *obs.Registry) {
	c.prog.Flush()
	if reg == nil {
		return
	}
	reg.Counter("measure_txns_total").Add(c.txns)
	reg.Counter("measure_txns_skipped_total").Add(c.skipped)
	reg.Counter("measure_failures_total").Add(c.fails)
	c.lat.fold(reg)
}

// runShards is the one sharded driver behind both engines. It resolves
// the run's entity table once, runs body on its own goroutine for each
// client range [bounds[i], bounds[i+1]), folds each shard's census when
// its body returns, and after every shard is done merges the shards'
// exemplar sinks into cfg.Trace in shard order. The merge keeps the K
// smallest canonical (client, ordinal) keys per class, so the folded
// exemplar set is the same for any shard count.
func runShards(cfg Config, bounds []int, body func(sh *shard)) error {
	ids := cfg.Scenario.EntityIDs(cfg.Topo)
	shards := make([]shard, len(bounds)-1)
	var wg sync.WaitGroup
	for i := range shards {
		sh := &shards[i]
		sh.index, sh.lo, sh.hi, sh.ids = i, bounds[i], bounds[i+1], ids
		sh.census.prog = cfg.Progress.Shard(i)
		if cfg.Trace != nil {
			sh.trace = obs.NewTracer(cfg.Trace.K())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(sh)
			sh.census.fold(cfg.Metrics)
		}()
	}
	wg.Wait()
	if cfg.Trace != nil {
		for i := range shards {
			if err := cfg.Trace.Merge(shards[i].trace); err != nil {
				return err
			}
		}
	}
	return nil
}

// EffectiveShards returns the worker count RunParallel actually uses for
// the requested shard count: <= 0 selects runtime.GOMAXPROCS(0), and the
// result is clamped to [1, nClients]. Callers use it to size per-shard
// accumulator arrays before the run.
func EffectiveShards(nClients, shards int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > nClients {
		shards = nClients
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// ShardRange returns the contiguous client-index range [lo, hi) that
// RunParallel assigns to the given shard, so callers can size per-shard
// accumulators or reason about the partition.
func ShardRange(nClients, shards, shard int) (lo, hi int) {
	return shard * nClients / shards, (shard + 1) * nClients / shards
}
