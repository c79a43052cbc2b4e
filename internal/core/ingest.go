package core

import (
	"strings"
	"sync"

	"webfail/internal/dataset"
	"webfail/internal/measure"
	"webfail/internal/obs"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// Consume streams every stored record of src into the accumulator in
// canonical (client-major, per-client time-ordered) order — the
// stored-data counterpart of feeding Add from a live measure.Run. A
// record outside the analysis window is an error.
func (a *Analysis) Consume(src dataset.RecordSource) error {
	err := dataset.AllRecords(src, func(r *measure.Record) error {
		a.Add(r)
		return nil
	})
	if err != nil {
		return err
	}
	return a.checkWindow()
}

// IngestOptions configures ConsumeParallelOpts.
type IngestOptions struct {
	// Shards is the worker count (<= 0 selects GOMAXPROCS; clamped to
	// the client count).
	Shards int
	// Passes selects the analyzer passes (none = all).
	Passes []PassName
	// Metrics (may be nil) receives one deterministic records-ingested
	// counter labeled with the selected pass set.
	Metrics *obs.Registry
	// Progress (may be nil) receives live per-shard ingest counts.
	Progress *obs.Progress
}

// ConsumeParallelOpts ingests src across opts.Shards workers, one
// contiguous client range per worker (the partition measure.RunParallel
// uses), each reading only the chunks overlapping its range into a
// private accumulator built with opts.Passes. A shard's grids allocate
// only the pages its client range touches, and the later shards merge
// into the first in shard order, so the result is identical to a serial
// Consume for any shard count. Like Consume, it fails on a record
// outside the analysis window.
//
// Ingest is fully streaming: no shard ever materializes a []Record —
// the source hands each worker records one at a time through reused
// decode buffers (the RecordSource non-retention contract), so ingest
// memory is bounded by the source's per-chunk working set regardless of
// dataset size. Add copies everything it keeps, satisfying the
// contract. Each shard counts into plain locals and folds in once at
// completion, so the metrics are shard-count-independent, and it ticks
// progress through its obs.ShardCounter, which publishes in batches.
func ConsumeParallelOpts(topo *workload.Topology, start, end simnet.Time, src dataset.RecordSource, opts IngestOptions) (*Analysis, error) {
	n := len(topo.Clients)
	shards := measure.EffectiveShards(n, opts.Shards)
	reg, prog := opts.Metrics, opts.Progress
	aopts := Options{Passes: opts.Passes}
	accs := make([]*Analysis, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		accs[s] = NewAnalysisOpts(topo, start, end, aopts)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := measure.ShardRange(n, shards, s)
			sc := prog.Shard(s)
			var ingested int64
			errs[s] = src.Records(lo, hi, func(r *measure.Record) error {
				accs[s].Add(r)
				ingested++
				sc.Tick()
				return nil
			})
			sc.Flush()
			reg.Counter(ingestCounterName(accs[s])).Add(ingested)
			if errs[s] == nil {
				errs[s] = accs[s].checkWindow()
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, acc := range accs[1:] {
		if err := accs[0].Merge(acc); err != nil {
			return nil, err
		}
	}
	return accs[0], nil
}

// ingestCounterName labels the records-ingested counter with the
// canonical selected pass set, so runs with different artifact
// selections expose distinguishable series.
func ingestCounterName(a *Analysis) string {
	names := a.Passes()
	strs := make([]string, len(names))
	for i, n := range names {
		strs[i] = string(n)
	}
	return `core_records_ingested_total{passes="` + strings.Join(strs, ",") + `"}`
}
