// Instrumented serial/parallel equivalence: enabling the observability
// layer (metrics registry + progress counters) must not change a single
// accumulated value, and the deterministic metric section itself must be
// identical for any shard count.
package measure_test

import (
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"webfail/internal/core"
	"webfail/internal/measure"
	"webfail/internal/obs"
)

func TestSerialParallelEquivalenceInstrumented(t *testing.T) {
	cfg, topo, end := buildParallelConfig(t)

	// Uninstrumented serial run: the reference for everything below.
	serial := core.NewAnalysis(topo, 0, end)
	if err := measure.Run(cfg, func(r *measure.Record) { serial.Add(r) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if serial.TotalTxns() == 0 || serial.TotalFails() == 0 {
		t.Fatalf("degenerate fixture: %s", serial)
	}

	var refDet obs.Section
	for i, shards := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		icfg := cfg
		reg := obs.NewRegistry()
		icfg.Metrics = reg
		eff := measure.EffectiveShards(len(topo.Clients), shards)
		icfg.Progress = obs.NewProgress(io.Discard, "test", "txns", 0, eff, time.Hour)
		icfg.Progress.Start()

		var par *core.Analysis
		if shards == 1 {
			par = core.NewAnalysis(topo, 0, end)
			if err := measure.Run(icfg, func(r *measure.Record) { par.Add(r) }); err != nil {
				t.Fatalf("instrumented Run: %v", err)
			}
		} else {
			par = runSharded(t, icfg, topo, end, shards)
		}
		icfg.Progress.Stop()

		// Instrumentation must not perturb the analysis.
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("shards=%d: instrumented analysis differs from uninstrumented serial", shards)
		}

		snap := reg.Snapshot()
		det := snap.Deterministic
		// The metrics agree with the analysis itself.
		if got := det.Counters["measure_txns_total"]; got != serial.TotalTxns() {
			t.Errorf("shards=%d: measure_txns_total = %d, want %d", shards, got, serial.TotalTxns())
		}
		if got := det.Counters["measure_failures_total"]; got != serial.TotalFails() {
			t.Errorf("shards=%d: measure_failures_total = %d, want %d", shards, got, serial.TotalFails())
		}
		// The progress total agrees with the scheduled transaction count
		// (performed + skipped).
		wantSched := det.Counters["measure_txns_total"] + det.Counters["measure_txns_skipped_total"]
		if got := icfg.Progress.Total(); got != wantSched {
			t.Errorf("shards=%d: progress total = %d, want %d", shards, got, wantSched)
		}
		// The entire deterministic section is shard-count-invariant.
		if i == 0 {
			refDet = det
			continue
		}
		if !reflect.DeepEqual(det, refDet) {
			t.Errorf("shards=%d: deterministic metrics differ from shards=1:\n got  %+v\n want %+v", shards, det, refDet)
		}
	}
}
