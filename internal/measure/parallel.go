package measure

import (
	"runtime"
	"sync"

	"webfail/internal/workload"
)

// RunParallel executes the experiment in fast mode across shards worker
// goroutines, partitioning the client roster into contiguous index ranges.
// Each worker runs the existing serial evaluator over its own client
// subset, which is sound because every client owns independent RNG streams
// for both scheduling (workload.ForEachTransactionRange) and outcome
// sampling (one rand.Rand per client in the evaluator): a client's records
// are byte-identical to the ones a serial Run would produce, regardless of
// shard count.
//
// visit is called once per performed transaction with the worker's shard
// index. Calls may arrive concurrently from different shards, but within a
// shard they are sequential and in per-client time order — feed one private
// accumulator per shard (e.g. a core.Analysis each, merged afterwards with
// Analysis.Merge in shard order) to recover output identical to a serial
// run. visit must not retain the Record pointer.
//
// shards <= 0 selects runtime.GOMAXPROCS(0); the count is clamped to the
// roster size.
func RunParallel(cfg Config, shards int, visit func(shard int, r *Record)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := len(cfg.Topo.Clients)
	shards = EffectiveShards(n, shards)

	// Per-shard tracers, merged in shard order after the run. The merge
	// is an ordered one keyed on the canonical (client, ordinal) key, so
	// the folded exemplar set matches a serial run for any shard count.
	var tracers []*traceShard
	if cfg.Trace != nil {
		tracers = make([]*traceShard, shards)
	}

	// One entity table for the run, read-only and shared by the shards.
	ids := cfg.Scenario.EntityIDs(cfg.Topo)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			// A private evaluator per worker: evaluator state (per-client
			// RNGs) is mutable, and building one is negligible next to
			// the run itself.
			ev := newShardEvaluator(cfg, ids)
			ev.prog = cfg.Progress.Shard(shard)
			if tracers != nil {
				ev.tr = newTraceShard(cfg.Trace.K(), n)
				tracers[shard] = ev.tr
			}
			// One Record per worker, reused across its transactions
			// (visit must not retain the pointer).
			var rec Record
			workload.ForEachTransactionRange(cfg.Topo, cfg.Seed, cfg.Start, cfg.End, lo, hi, func(tx *workload.Transaction) {
				if ev.evaluate(tx, &rec) {
					visit(shard, &rec)
				}
			})
			ev.fold(cfg.Metrics)
		}(s, lo, hi)
	}
	wg.Wait()
	for _, tr := range tracers {
		if tr != nil {
			if err := cfg.Trace.Merge(tr.sink); err != nil {
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
