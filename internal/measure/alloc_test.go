package measure

import (
	"io"
	"runtime"
	"testing"
	"time"

	"webfail/internal/obs"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
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

// TestShardEvaluatorRange pins the evaluator's memory to its shard: it
// holds one RNG stream, quality entry and exemplar ordinal per client of
// [lo, hi), not per roster client, and each stream is the one a
// whole-roster evaluator gives that client.
func TestShardEvaluatorRange(t *testing.T) {
	cfg := smallConfig(t, 20, 6, 2, 7)
	ids := cfg.Scenario.EntityIDs(cfg.Topo)
	n := len(cfg.Topo.Clients)
	for _, r := range [][2]int{{0, n}, {3, 11}, {n - 1, n}} {
		lo, hi := r[0], r[1]
		full := newEvaluator(cfg, &shard{hi: n, ids: ids})
		ev := newEvaluator(cfg, &shard{lo: lo, hi: hi, ids: ids, trace: obs.NewTracer(2)})
		if len(ev.rngs) != hi-lo || len(ev.quality) != hi-lo || len(ev.tr.seq) != hi-lo {
			t.Errorf("shard [%d, %d): %d streams, %d quality entries, %d ordinals, want %d each",
				lo, hi, len(ev.rngs), len(ev.quality), len(ev.tr.seq), hi-lo)
			continue
		}
		for ci := lo; ci < hi; ci++ {
			if got, want := ev.rngs[ci-lo].Int63(), full.rngs[ci].Int63(); got != want {
				t.Errorf("shard [%d, %d): client %d draws %d, whole-roster evaluator %d", lo, hi, ci, got, want)
			}
			if ev.quality[ci-lo] != full.quality[ci] {
				t.Errorf("shard [%d, %d): client %d quality %v, want %v", lo, hi, ci, ev.quality[ci-lo], full.quality[ci])
			}
		}
	}
}

// maxPacketAllocsPerTxn bounds the packet engine's heap allocations per
// performed transaction on BenchmarkRunPacketMode's fixture, world build
// included. The message path (DNS encode/decode, HTTP heads, per-request
// and per-connection reader state) and the LDNS's hierarchy walk
// allocate nothing in steady state, and the world pools each
// transaction's Record and completion callbacks. What remains per
// transaction: two tcpsim Conns with their RTO method values and the SYN
// (5); httpsim's FetchResult, its continuation closures and the parsed
// request (7); the stub's per-try closure and the address lists the LDNS
// caches and the stub returns (3); and, spread over the run, the world
// build, interned DNS names and record slices (about 4). Measured: 19.4,
// so one more allocation per transaction fails.
const maxPacketAllocsPerTxn = 20

// packetBudgetConfig is the packet-engine gates' fixture, the 6 clients
// x 6 sites x 2 h paper-default run of BenchmarkRunPacketMode.
func packetBudgetConfig() Config {
	topo := scenario.PaperScaledTopology(6, 6)
	end := simnet.FromHours(2)
	sc := workload.BuildScenario(topo, scenario.PaperParams(2005, 0, end))
	return Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
}

// TestRunPacketAllocsPerTxn is the allocation-regression gate for the
// packet engine: after one warm-up run, a RunPacket over
// packetBudgetConfig must stay within maxPacketAllocsPerTxn mallocs per
// performed transaction.
func TestRunPacketAllocsPerTxn(t *testing.T) {
	cfg := packetBudgetConfig()
	run := func() int {
		n := 0
		if err := RunPacket(cfg, func(*Record) { n++ }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	txns := run()
	runtime.ReadMemStats(&after)
	if txns == 0 {
		t.Fatal("no transactions performed")
	}
	perTxn := float64(after.Mallocs-before.Mallocs) / float64(txns)
	t.Logf("%d allocations for %d transactions: %.1f per transaction", after.Mallocs-before.Mallocs, txns, perTxn)
	if perTxn > maxPacketAllocsPerTxn {
		t.Errorf("RunPacket allocates %.1f times per transaction, want at most %d", perTxn, maxPacketAllocsPerTxn)
	}
}

// TestRunPacketWork pins the packet engine's deterministic work on
// packetBudgetConfig at one and three shards: the transactions it
// performs, the failures among them and the scheduler events it
// dispatches. One more event per transaction fails it. The pin is a
// golden: update it deliberately, with the reason, when the engine's
// work really changes.
func TestRunPacketWork(t *testing.T) {
	const txns, fails, events = 288, 0, 11_937
	cfg := packetBudgetConfig()
	for _, shards := range []int{1, 3} {
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		if err := RunPacketParallel(cfg, shards, func(int, *Record) {}); err != nil {
			t.Fatal(err)
		}
		got := [3]int64{
			reg.Counter("measure_txns_total").Value(),
			reg.Counter("measure_failures_total").Value(),
			reg.Counter("simnet_events_dispatched_total").Value(),
		}
		if got != [3]int64{txns, fails, events} {
			t.Errorf("%d shards: %d transactions, %d failures, %d events; want %d, %d, %d",
				shards, got[0], got[1], got[2], txns, fails, events)
		}
	}
}
