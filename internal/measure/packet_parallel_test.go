package measure

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"webfail/internal/obs"
)

// packetRecordDump renders a run's record stream as one canonical string,
// so equivalence tests compare byte-identical output rather than
// structure-approximate output.
func packetRecordDump(t *testing.T, run func(visit func(*Record)) error) string {
	t.Helper()
	var b strings.Builder
	if err := run(func(r *Record) {
		fmt.Fprintf(&b, "%d %d %d %v %v %v %d %d %d %d %d %v %v %d %d\n",
			r.ClientIdx, r.SiteIdx, int64(r.At), r.Category, r.Proxied,
			r.DNS, r.DNSTime, r.Stage, r.FailKind, r.Conns, r.StatusCode,
			r.Bytes, r.ReplicaIP, r.Elapsed, r.Redirects)
	}); err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Fatal("empty record stream")
	}
	return b.String()
}

// TestPacketSerialParallelEquivalence is the determinism gate for the
// sharded packet engine: the merged record stream must be byte-identical
// to the serial stream for every shard count, and identical across
// repeated runs. Per-client RNG streams are seeded by global client
// index and loss draws are routed by causal context, so partitioning
// clients across worlds must not perturb a single outcome.
func TestPacketSerialParallelEquivalence(t *testing.T) {
	cfg := smallConfig(t, 6, 5, 3, 2005)

	serial := packetRecordDump(t, func(visit func(*Record)) error {
		return RunPacket(cfg, visit)
	})
	again := packetRecordDump(t, func(visit func(*Record)) error {
		return RunPacket(cfg, visit)
	})
	if serial != again {
		t.Fatal("serial packet runs differ across repetitions")
	}

	for _, shards := range []int{2, 3, 4, 6, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			par := packetRecordDump(t, func(visit func(*Record)) error {
				return RunPacketParallel(cfg, shards, func(_ int, r *Record) { visit(r) })
			})
			if par != serial {
				t.Errorf("parallel(%d) record stream differs from serial", shards)
			}
		})
	}
}

// TestPacketProgress: packet shards tick progress once per scheduled
// transaction, so after the run the reporter's total equals the
// performed plus skipped transactions the census folded, for any shard
// count. The fixture schedules fewer transactions than one progress
// batch, so the total is there only if each shard's census flushes.
func TestPacketProgress(t *testing.T) {
	cfg := smallConfig(t, 6, 5, 3, 2005)
	for _, shards := range []int{1, 3} {
		icfg := cfg
		reg := obs.NewRegistry()
		icfg.Metrics = reg
		icfg.Progress = obs.NewProgress(io.Discard, "test", "txns", 0, shards, time.Hour)
		if err := RunPacketParallel(icfg, shards, func(int, *Record) {}); err != nil {
			t.Fatal(err)
		}
		det := reg.Snapshot().Deterministic
		want := det.Counters["measure_txns_total"] + det.Counters["measure_txns_skipped_total"]
		if det.Counters["measure_txns_total"] == 0 {
			t.Fatalf("shards=%d: no transactions performed", shards)
		}
		if got := icfg.Progress.Total(); got != want {
			t.Errorf("shards=%d: progress total = %d, want %d (performed + skipped)", shards, got, want)
		}
	}
}

// TestPacketParallelShardOrder checks the visit contract: shard indices
// arrive in ascending order and each shard's records are client-major,
// so callers can merge per-shard accumulators by shard index.
func TestPacketParallelShardOrder(t *testing.T) {
	cfg := smallConfig(t, 5, 4, 2, 2005)
	lastShard := -1
	lastClient := map[int]int32{}
	err := RunPacketParallel(cfg, 3, func(s int, r *Record) {
		if s < lastShard {
			t.Fatalf("shard %d visited after shard %d", s, lastShard)
		}
		lastShard = s
		if c, ok := lastClient[s]; ok && r.ClientIdx < c {
			t.Fatalf("shard %d: client %d after client %d", s, r.ClientIdx, c)
		}
		lastClient[s] = r.ClientIdx
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastShard < 0 {
		t.Fatal("no records")
	}
}

// TestPacketCaptureUnknownClient: asking for a capture of a client not in
// the roster must fail loudly instead of silently recording nothing.
func TestPacketCaptureUnknownClient(t *testing.T) {
	cfg := quietConfig(t, 2, 2, 1)
	err := RunPacketWithCapture(cfg, []string{"no-such-client"}, func(*Record) {}, func(CaptureResult) {})
	if err == nil {
		t.Fatal("expected error for unknown capture client")
	}
	if !strings.Contains(err.Error(), "no-such-client") {
		t.Errorf("error %q does not name the unknown client", err)
	}
}
