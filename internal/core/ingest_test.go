package core

import (
	"strings"
	"testing"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
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
