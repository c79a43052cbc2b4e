package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webfail/internal/measure"
	"webfail/internal/obs"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// TestForensicsWaterfall drives -forensics end to end: the fixture
// dataset stores no run seed (RunSeed 0) though its run used seed 1, so
// the seed-0 replay misses the header's counts and the replay falls
// back to the default seed with a stderr note, finds exemplars of a
// failure class the 24-hour paper-scaled world reliably produces, and
// renders their waterfalls.
func TestForensicsWaterfall(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the fixture run")
	}
	path := fixtureDataset(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-in", path, "-forensics", "tcp:no-connection"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "forensics:") || !strings.Contains(out, "tcp:no-connection") {
		t.Fatalf("missing forensics header:\n%.600s", out)
	}
	for _, want := range []string{"txn", "dns", "tcp ", "blame="} {
		if !strings.Contains(out, want) {
			t.Errorf("forensics output missing %q:\n%.800s", want, out)
		}
	}
	if !strings.Contains(stderr.String(), "predates run-seed metadata") {
		t.Errorf("expected the run-seed fallback note on stderr, got:\n%s", stderr.String())
	}
}

// TestForensicsRunSeedZero: -runseed 0 is a valid run seed, so a
// dataset that stores it replays with it, and the forensics -trace-out
// equals the live run's trace.
func TestForensicsRunSeedZero(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 24-hour run")
	}
	topo := scenario.PaperScaledTopology(12, 8)
	end := simnet.FromHours(24)
	sc := workload.BuildScenario(topo, scenario.PaperParams(2005, 0, end))
	live := obs.NewTracer(3)
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 0, Start: 0, End: end, Trace: live}
	meta := measure.DatasetMeta{
		Seed: 2005, RunSeed: 0, StartUnix: simnet.Time(0).Unix(), EndUnix: end.Unix(),
		Clients: len(topo.Clients), Websites: len(topo.Websites),
	}
	path := saveRun(t, meta, func(visit func(*measure.Record)) error { return measure.Run(cfg, visit) })
	var want bytes.Buffer
	if err := live.WriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}

	traceOut := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-in", path, "-forensics", "tcp:no-connection",
		"-trace-exemplars", "3", "-trace-out", traceOut}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("forensics trace of a run-seed-0 dataset differs from the live run's (%d vs %d bytes)", len(got), want.Len())
	}
	if !strings.Contains(stdout.String(), "run seed 0") {
		t.Errorf("forensics header does not name run seed 0:\n%.300s", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr:\n%s", stderr.String())
	}
}

// TestForensicsPacketDataset: fast mode cannot replay a packet-mode
// run, so forensics on its dataset fails with an error naming the
// replay's counts and the header's instead of printing exemplars of a
// different run.
func TestForensicsPacketDataset(t *testing.T) {
	topo := scenario.PaperScaledTopology(12, 12)
	end := simnet.FromHours(4)
	sc := workload.BuildScenario(topo, scenario.PaperParams(2005, 0, end))
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	meta := measure.DatasetMeta{
		Seed: 2005, RunSeed: 1, StartUnix: simnet.Time(0).Unix(), EndUnix: end.Unix(),
		Clients: len(topo.Clients), Websites: len(topo.Websites),
	}
	var packetTxns, packetFails int64
	path := saveRun(t, meta, func(visit func(*measure.Record)) error {
		return measure.RunPacket(cfg, func(r *measure.Record) {
			packetTxns++
			if r.Failed() {
				packetFails++
			}
			visit(r)
		})
	})
	var fastTxns, fastFails int64
	if err := measure.Run(cfg, func(r *measure.Record) {
		fastTxns++
		if r.Failed() {
			fastFails++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if fastTxns == packetTxns && fastFails == packetFails {
		t.Fatalf("fast and packet runs agree (%d txns, %d failures); the test needs runs that differ", fastTxns, fastFails)
	}

	var stdout, stderr bytes.Buffer
	err := run([]string{"-in", path, "-forensics", "tcp:no-connection"}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("forensics on a packet-mode dataset succeeded:\n%.600s", stdout.String())
	}
	for _, want := range []string{
		fmt.Sprintf("made %d transactions and %d failures", fastTxns, fastFails),
		fmt.Sprintf("records %d and %d", packetTxns, packetFails),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// TestForensicsUnknownClass: a bad class name must fail with the list
// of valid ones rather than replaying anything.
func TestForensicsUnknownClass(t *testing.T) {
	path := fixtureDataset(t)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-in", path, "-forensics", "bogus"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown failure class") {
		t.Fatalf("want unknown-class error, got %v", err)
	}
}

// TestTraceOutRequiresForensics: -trace-out on a plain analysis has
// nothing to export and must say so.
func TestTraceOutRequiresForensics(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-in", "x", "-trace-out", "t.json"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-forensics") {
		t.Fatalf("want -forensics requirement error, got %v", err)
	}
}
