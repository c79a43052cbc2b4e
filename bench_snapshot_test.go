package webfail

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"webfail/internal/dataset"
	"webfail/internal/obs"
)

// benchSnapshotResult is one benchmark's row in the snapshot file.
type benchSnapshotResult struct {
	NsPerOp       int64   `json:"ns_per_op"`
	RecordsPerOp  int64   `json:"records_per_op"`
	RecordsPerSec float64 `json:"records_per_sec"`
	BytesPerOp    int64   `json:"allocated_bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
}

func toSnapshotResult(r testing.BenchmarkResult, records int) benchSnapshotResult {
	ns := r.NsPerOp()
	out := benchSnapshotResult{
		NsPerOp:      ns,
		RecordsPerOp: int64(records),
		BytesPerOp:   r.AllocedBytesPerOp(),
		AllocsPerOp:  r.AllocsPerOp(),
	}
	if ns > 0 {
		out.RecordsPerSec = float64(records) * 1e9 / float64(ns)
	}
	return out
}

// TestBenchSnapshot runs the dataset save/load benchmarks with the
// metrics registry attached and writes a JSON snapshot — throughput
// plus the obs registry's counters and histograms —
// to the path in WEBFAIL_BENCH_OUT. Unset, the test skips, so plain
// `go test` stays fast; scripts/bench.sh sets it and names the file
// BENCH_<date>.json.
func TestBenchSnapshot(t *testing.T) {
	outPath := os.Getenv("WEBFAIL_BENCH_OUT")
	if outPath == "" {
		t.Skip("set WEBFAIL_BENCH_OUT=<path> to emit a benchmark snapshot (scripts/bench.sh does)")
	}
	reg := obs.NewRegistry()
	var records int
	bench := func(f func(b *testing.B, opts dataset.Options), opts dataset.Options) benchSnapshotResult {
		res := testing.Benchmark(func(b *testing.B) {
			recs, _, _, _ := getDatasetFixture(b)
			records = len(recs)
			f(b, opts)
		})
		return toSnapshotResult(res, records)
	}

	doc := struct {
		GoVersion  string                         `json:"go_version"`
		GOMAXPROCS int                            `json:"gomaxprocs"`
		Benchmarks map[string]benchSnapshotResult `json:"benchmarks"`
		Metrics    obs.Snapshot                   `json:"metrics"`
	}{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]benchSnapshotResult{
			"dataset_save_v3":          bench(benchDatasetSave, dataset.Options{Metrics: reg}),
			"dataset_load_parallel_v3": bench(benchDatasetLoadParallel, dataset.Options{Metrics: reg}),
		},
	}
	doc.Metrics = reg.Snapshot()

	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (save v3: %.0f rec/s, load v3: %.0f rec/s)", outPath,
		doc.Benchmarks["dataset_save_v3"].RecordsPerSec,
		doc.Benchmarks["dataset_load_parallel_v3"].RecordsPerSec)
}
