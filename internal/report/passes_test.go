package report

import (
	"slices"
	"strings"
	"testing"

	"webfail/internal/core"
	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// TestArtifactPassRegistry pins every artifact, in KnownArtifacts
// order, to the analyzer passes PassesFor resolves it to alone.
func TestArtifactPassRegistry(t *testing.T) {
	const (
		totals   = core.PassTotals
		traffic  = core.PassTraffic
		grids    = core.PassGrids
		failures = core.PassFailures
		pairs    = core.PassPairs
		replicas = core.PassReplicas
		conns    = core.PassConns
	)
	topology := []core.PassName{totals}
	categories := []core.PassName{totals, traffic}
	attribution := []core.PassName{totals, grids, failures, pairs}
	bgp := []core.PassName{totals, conns}
	want := []struct {
		name   string
		passes []core.PassName
	}{
		{"table1", topology},
		{"table2", topology},
		{"table3", categories},
		{"table4", categories},
		{"table5", attribution},
		{"table6", attribution},
		{"table7", attribution},
		{"table8", attribution},
		{"table9", attribution},
		{"fig1", categories},
		{"fig2", categories},
		{"fig3", categories},
		{"fig4", []core.PassName{totals, grids}},
		{"fig5", bgp},
		{"fig6", bgp},
		{"fig7", bgp},
		{"replicas", []core.PassName{totals, grids, failures, pairs, replicas}},
		{"headlines", []core.PassName{totals, traffic, grids, failures, pairs}},
	}
	known := KnownArtifacts()
	if len(known) != len(want) {
		t.Fatalf("KnownArtifacts() = %v, want %d artifacts", known, len(want))
	}
	for i, w := range want {
		if known[i] != w.name {
			t.Errorf("KnownArtifacts()[%d] = %q, want %q", i, known[i], w.name)
		}
		got, err := PassesFor(map[string]bool{w.name: true})
		if err != nil {
			t.Errorf("PassesFor(%q): %v", w.name, err)
		}
		if !slices.Equal(got, w.passes) {
			t.Errorf("PassesFor(%q) = %v, want %v", w.name, got, w.passes)
		}
	}
}

func TestPassesForErrors(t *testing.T) {
	if _, err := PassesFor(map[string]bool{"table99": true}); err == nil {
		t.Error("PassesFor(table99) should error")
	}
	// Empty selection means everything: the full pass set.
	all, err := PassesFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(core.AllPasses()) {
		t.Errorf("PassesFor(nil) = %v, want all passes %v", all, core.AllPasses())
	}
}

// TestSelectiveMatchesFull is the end-to-end guarantee behind
// -artifacts: for every artifact, an accumulator built with only that
// artifact's passes renders byte-identical output to one built with
// every pass, over the same record stream, and that output is not
// empty.
func TestSelectiveMatchesFull(t *testing.T) {
	topo := scenario.PaperScaledTopology(24, 16)
	end := simnet.FromHours(24)
	sc := workload.BuildScenario(topo, scenario.PaperParams(2005, 0, end))
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}

	var recs []measure.Record
	full := core.NewAnalysis(topo, 0, end)
	err := measure.Run(cfg, func(r *measure.Record) {
		recs = append(recs, *r)
		full.Add(r)
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range KnownArtifacts() {
		sel := map[string]bool{name: true}
		passes, err := PassesFor(sel)
		if err != nil {
			t.Fatalf("PassesFor(%q): %v", name, err)
		}
		partial := core.NewAnalysisOpts(topo, 0, end, core.Options{Passes: passes})
		for i := range recs {
			partial.Add(&recs[i])
		}

		var wantBuf, gotBuf strings.Builder
		(&Reporter{W: &wantBuf, A: full, Topo: topo, Sc: sc, Seed: 2005}).Run(sel)
		(&Reporter{W: &gotBuf, A: partial, Topo: topo, Sc: sc, Seed: 2005}).Run(sel)
		if wantBuf.Len() == 0 {
			t.Errorf("artifact %q rendered nothing when selected alone", name)
		}
		if gotBuf.String() != wantBuf.String() {
			t.Errorf("artifact %q: selective run (passes %v) differs from full run", name, passes)
		}
	}
}
