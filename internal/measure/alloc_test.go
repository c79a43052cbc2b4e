package measure

import (
	"io"
	"testing"
	"time"

	"webfail/internal/obs"
	"webfail/internal/workload"
)

// TestEvaluateZeroAllocs is the allocation-regression gate for the
// fast-mode hot path: after warm-up (scratch buffers grown to the
// fixture's worst case), evaluate must perform zero heap allocations per
// transaction. The fixture is a full default scenario — permanent pairs,
// chronic servers, replica rotation, and BGP episodes all exercised — so
// a reintroduced per-transaction map or slice shows up here before it
// shows up in a month-scale wall clock. The evaluator runs with its
// shard's census (counters, per-class latency and progress ticks)
// active — and with the tracing hooks compiled in but disabled
// (ev.tr == nil) — so the gate covers the instrumented hot path and
// pins the contract that tracing off costs no allocations.
func TestEvaluateZeroAllocs(t *testing.T) {
	cfg := smallConfig(t, 20, 0, 6, 7) // all 80 sites: multi-replica + CDN + proxied paths
	prog := obs.NewProgress(io.Discard, "test", "txns", 0, 1, time.Hour)
	sh := &shard{hi: len(cfg.Topo.Clients), ids: cfg.Scenario.EntityIDs(cfg.Topo)}
	sh.census.prog = prog.Shard(0)
	ev := newEvaluator(cfg, sh)

	var txs []workload.Transaction
	workload.ForEachTransaction(cfg.Topo, cfg.Seed, cfg.Start, cfg.End, func(tx *workload.Transaction) {
		txs = append(txs, *tx)
	})
	if len(txs) == 0 {
		t.Fatal("empty schedule")
	}

	var rec Record
	// Warm-up: one pass over every transaction grows each scratch buffer
	// to its steady-state capacity.
	for i := range txs {
		ev.evaluate(&txs[i], &rec)
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		ev.evaluate(&txs[i%len(txs)], &rec)
		i++
	})
	if avg != 0 {
		t.Errorf("evaluate allocates %.3f times per transaction, want 0", avg)
	}
}
