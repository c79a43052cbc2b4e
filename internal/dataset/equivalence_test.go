// Save/load serial/parallel equivalence: the stored-data counterpart of
// measure's TestSerialParallelEquivalence. The guarantee extended here
// across the persistence boundary: analyzing a dataset through
// core.ConsumeParallelOpts is byte-identical to a serial in-memory analysis,
// for any shard count on either side of the save.
package dataset_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"webfail/internal/core"
	"webfail/internal/dataset"
	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// buildRunConfig is a small but fault-rich experiment, matching the
// shape of measure's equivalence fixture.
func buildRunConfig(t testing.TB) (measure.Config, *workload.Topology, simnet.Time) {
	t.Helper()
	topo := scenario.PaperScaledTopology(13, 12)
	end := simnet.FromHours(12)
	sc := workload.BuildScenario(topo, scenario.PaperParams(2005, 0, end))
	return measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}, topo, end
}

func runMeta(topo *workload.Topology, end simnet.Time) measure.DatasetMeta {
	return measure.DatasetMeta{
		Seed: 2005, StartUnix: simnet.Time(0).Unix(), EndUnix: end.Unix(),
		Clients: len(topo.Clients), Websites: len(topo.Websites),
	}
}

// TestSerialParallelEquivalenceAcrossSaveLoad stores every record of a
// serial run (small chunks, so many chunks and partial tails), then
// checks that Consume and ConsumeParallelOpts at several shard counts all
// reproduce the live serial accumulator exactly.
func TestSerialParallelEquivalenceAcrossSaveLoad(t *testing.T) {
	cfg, topo, end := buildRunConfig(t)

	live := core.NewAnalysis(topo, 0, end)
	var buf bytes.Buffer
	w, err := dataset.NewWriter(&buf, runMeta(topo, end), dataset.Options{ChunkRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	sink := w.NewSink()
	if err := measure.Run(cfg, func(r *measure.Record) {
		live.Add(r)
		if err := sink.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if live.TotalTxns() == 0 || live.TotalFails() == 0 {
		t.Fatalf("degenerate fixture: %s", live)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := dataset.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if src.Stored() != live.TotalTxns() {
		t.Fatalf("stored %d records, run performed %d", src.Stored(), live.TotalTxns())
	}

	serial := core.NewAnalysis(topo, 0, end)
	if err := serial.Consume(src); err != nil {
		t.Fatalf("Consume: %v", err)
	}
	if !reflect.DeepEqual(live, serial) {
		t.Errorf("serial Consume differs from live accumulator (%s vs %s)", live, serial)
	}

	for _, shards := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		par, err := core.ConsumeParallelOpts(topo, 0, end, src, core.IngestOptions{Shards: shards})
		if err != nil {
			t.Fatalf("ConsumeParallelOpts(%d): %v", shards, err)
		}
		if !reflect.DeepEqual(live, par) {
			t.Errorf("shards=%d: ConsumeParallelOpts differs from live accumulator (%s vs %s)", shards, live, par)
		}
	}
}

// TestShardedSaveEquivalence writes the dataset from RunParallel shard
// workers (each with its own sink, flushing concurrently) and checks
// the stored stream is identical to a serial save: same canonical
// record sequence, same meta, same analysis through any ingest width.
func TestShardedSaveEquivalence(t *testing.T) {
	cfg, topo, end := buildRunConfig(t)

	// Serial save via the Observe policy (count all, store failures).
	var serialBuf bytes.Buffer
	sw, err := dataset.NewWriter(&serialBuf, runMeta(topo, end), dataset.Options{ChunkRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	ssink := sw.NewSink()
	if err := measure.Run(cfg, func(r *measure.Record) { ssink.Observe(r) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := ssink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{3, runtime.GOMAXPROCS(0)} {
		eff := measure.EffectiveShards(len(topo.Clients), shards)
		var parBuf bytes.Buffer
		pw, err := dataset.NewWriter(&parBuf, runMeta(topo, end), dataset.Options{ChunkRecords: 256})
		if err != nil {
			t.Fatal(err)
		}
		sinks := make([]*dataset.Sink, eff)
		for i := range sinks {
			sinks[i] = pw.NewSink()
		}
		if err := measure.RunParallel(cfg, eff, func(s int, r *measure.Record) {
			sinks[s].Observe(r)
		}); err != nil {
			t.Fatalf("RunParallel(%d): %v", eff, err)
		}
		for _, s := range sinks {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := pw.Close(); err != nil {
			t.Fatal(err)
		}

		ssrc, err := dataset.Open(bytes.NewReader(serialBuf.Bytes()), int64(serialBuf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		psrc, err := dataset.Open(bytes.NewReader(parBuf.Bytes()), int64(parBuf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ssrc.Meta(), psrc.Meta()) {
			t.Errorf("shards=%d: meta differs: serial %+v parallel %+v", eff, ssrc.Meta(), psrc.Meta())
		}
		sameRecords(t, collect(t, psrc, 0, 1<<30), collect(t, ssrc, 0, 1<<30),
			"sharded-save canonical stream")

		sa, err := core.ConsumeParallelOpts(topo, 0, end, ssrc, core.IngestOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		pa, err := core.ConsumeParallelOpts(topo, 0, end, psrc, core.IngestOptions{Shards: eff})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sa, pa) {
			t.Errorf("shards=%d: analysis of sharded save differs from serial save", eff)
		}
	}
}

// TestDatasetV3SerialParallelEquivalence is the determinism contract
// end to end: a serial single-sink save and a sharded save through
// concurrent sinks must store the identical canonical record stream,
// and every (save, ingest width) pairing must produce the identical
// analysis.
func TestDatasetV3SerialParallelEquivalence(t *testing.T) {
	cfg, topo, end := buildRunConfig(t)

	save := func(shards int) []byte {
		var buf bytes.Buffer
		w, err := dataset.NewWriter(&buf, runMeta(topo, end), dataset.Options{ChunkRecords: 256})
		if err != nil {
			t.Fatal(err)
		}
		if shards <= 1 {
			sink := w.NewSink()
			if err := measure.Run(cfg, func(r *measure.Record) { sink.Observe(r) }); err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			eff := measure.EffectiveShards(len(topo.Clients), shards)
			sinks := make([]*dataset.Sink, eff)
			for i := range sinks {
				sinks[i] = w.NewSink()
			}
			if err := measure.RunParallel(cfg, eff, func(s int, r *measure.Record) {
				sinks[s].Observe(r)
			}); err != nil {
				t.Fatal(err)
			}
			for _, s := range sinks {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := save(1)
	sharded := save(4)

	openSrc := func(data []byte) dataset.RecordSource {
		src, err := dataset.Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	base := openSrc(serial)
	want := collect(t, base, 0, 1<<30)
	sameRecords(t, collect(t, openSrc(sharded), 0, 1<<30), want, "sharded canonical stream")

	ref, err := core.ConsumeParallelOpts(topo, 0, end, base, core.IngestOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		for name, data := range map[string][]byte{"serial": serial, "sharded": sharded} {
			a, err := core.ConsumeParallelOpts(topo, 0, end, openSrc(data), core.IngestOptions{Shards: shards})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if !reflect.DeepEqual(ref, a) {
				t.Errorf("%s shards=%d: analysis differs from serial ingest", name, shards)
			}
		}
	}
}
