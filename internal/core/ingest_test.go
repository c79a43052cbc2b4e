package core

import (
	"io"
	"strings"
	"testing"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/obs"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
)

// sliceSource is a RecordSource over records already in canonical
// order.
type sliceSource []measure.Record

func (s sliceSource) Meta() measure.DatasetMeta { return measure.DatasetMeta{} }
func (s sliceSource) Stored() int64             { return int64(len(s)) }

func (s sliceSource) Records(lo, hi int, visit func(r *measure.Record) error) error {
	for i := range s {
		if c := int(s[i].ClientIdx); c >= lo && c < hi {
			if err := visit(&s[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestStoredRecordOutsideWindow: both stored-record entry points refuse
// a record whose bin Add would clamp into the window's first or last
// bin, and accept records up to the window's edges.
func TestStoredRecordOutsideWindow(t *testing.T) {
	topo := scenario.SyntheticTopology(4, 3)
	end := simnet.FromHours(12)
	rec := func(client int32, at simnet.Time) measure.Record {
		return measure.Record{ClientIdx: client, SiteIdx: 1, At: at, Stage: httpsim.StageTCP, Conns: 1}
	}
	edges := []measure.Record{rec(0, 0), rec(3, end.Add(-time.Nanosecond))}
	ingest := map[string]func(src sliceSource) error{
		"Consume": func(src sliceSource) error { return NewAnalysis(topo, 0, end).Consume(src) },
		"ConsumeParallelOpts": func(src sliceSource) error {
			_, err := ConsumeParallelOpts(topo, 0, end, src, IngestOptions{Shards: 2})
			return err
		},
	}
	for name, consume := range ingest {
		if err := consume(edges); err != nil {
			t.Errorf("%s: records at the window's edges: %v", name, err)
		}
		for _, at := range []simnet.Time{-simnet.FromHours(3), end, simnet.FromHours(500)} {
			src := sliceSource{edges[0], rec(2, at), edges[1]}
			err := consume(src)
			if err == nil || !strings.Contains(err.Error(), "outside the analysis window") {
				t.Errorf("%s: record at %v: err = %v, want an outside-the-window error", name, at, err)
			}
		}
	}
}

// TestIngestProgress: ConsumeParallelOpts ticks progress once per stored
// record, so after ingest the reporter's total equals src.Stored() for
// any shard count. Every shard holds more records than one progress
// batch, so both the batches and each shard's final flush count.
func TestIngestProgress(t *testing.T) {
	const clients, perClient = 4, 9000
	topo := scenario.SyntheticTopology(clients, 3)
	end := simnet.FromHours(12)
	var src sliceSource
	for c := int32(0); c < clients; c++ {
		for i := 0; i < perClient; i++ {
			at := simnet.Time(0).Add(time.Duration(i) * time.Second)
			src = append(src, measure.Record{ClientIdx: c, SiteIdx: int32(i % 3), At: at, Conns: 1, StatusCode: 200})
		}
	}
	for _, shards := range []int{1, 3} {
		prog := obs.NewProgress(io.Discard, "test", "records", 0, shards, time.Hour)
		if _, err := ConsumeParallelOpts(topo, 0, end, src, IngestOptions{Shards: shards, Progress: prog}); err != nil {
			t.Fatal(err)
		}
		if got := prog.Total(); got != src.Stored() {
			t.Errorf("shards=%d: progress total = %d, want %d", shards, got, src.Stored())
		}
	}
}
