package core

import (
	"testing"

	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// TestAddZeroAllocs is the allocation-regression gate for the analyzer's
// ingest hot path: with every pass selected, Add must perform no heap
// allocation per record once the grids hold the stream's pages. The
// stream is a 20-client x 80-site x 6 h paper-default run (34,916
// records), so every pass sees DNS, TCP and HTTP failures and every
// replicated and CDN site.
// testing.AllocsPerRun truncates its mean, so the failures pass's
// amortized growth (one FailureRec appended per failed record) reads 0
// while one allocation per record reads 1.
func TestAddZeroAllocs(t *testing.T) {
	topo := scenario.PaperScaledTopology(20, 0)
	end := simnet.FromHours(6)
	sc := workload.BuildScenario(topo, scenario.PaperParams(7, 0, end))
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	var recs []measure.Record
	if err := measure.Run(cfg, func(r *measure.Record) { recs = append(recs, *r) }); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty stream")
	}
	a := NewAnalysis(topo, 0, end)
	// Warm-up: one pass over the stream gives every grid its pages.
	for i := range recs {
		a.Add(&recs[i])
	}
	i := 0
	avg := testing.AllocsPerRun(len(recs), func() {
		a.Add(&recs[i%len(recs)])
		i++
	})
	if avg != 0 {
		t.Errorf("Add allocates %.3f times per record, want 0", avg)
	}
}
