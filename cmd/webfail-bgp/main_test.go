package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webfail/internal/bgpsim"
	"webfail/internal/core"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// TestMRTArchiveReaggregates reads the -mrt archive back and requires
// that aggregating and cleaning it gives exactly the table and reset
// hours core.GenerateBGP computes for the run, and the counts the report
// printed: the archive must carry the injected instability storms and
// the collector reset, not only baseline churn.
func TestMRTArchiveReaggregates(t *testing.T) {
	const hours, seed = 48, 2005
	path := filepath.Join(t.TempDir(), "bgp.mrt")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-hours", fmt.Sprint(hours), "-seed", fmt.Sprint(seed), "-mrt", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	updates, err := bgpsim.ReadMRT(f)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := spec.Topology(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	params, err := spec.Params(seed, 0, simnet.FromHours(hours))
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.BuildScenario(topo, params)
	prefixes := topo.AllPrefixes()

	table := bgpsim.Aggregate(updates)
	resets := bgpsim.Clean(table, bgpsim.CleanConfig{ResetFraction: 0.5, TotalPrefixes: len(prefixes)})
	wantTable, wantResets := core.GenerateBGP(topo, sc, seed^0x6b67)
	if !reflect.DeepEqual(resets, wantResets) {
		t.Errorf("archive reset hours %v, GenerateBGP %v", resets, wantResets)
	}
	if !reflect.DeepEqual(table, wantTable) {
		t.Errorf("archive re-aggregates to a table that differs from GenerateBGP's")
	}

	var aggregated, severe70, severeB, withdrawals int
	for _, pfx := range prefixes {
		for _, h := range table.Hours(pfx) {
			st := table.Get(pfx, h)
			aggregated += st.Announcements + st.Withdrawals
			withdrawals += st.Withdrawals
			if bgpsim.SevereInstability70(st) {
				severe70++
			}
			if bgpsim.SevereInstability50x75(st) {
				severeB++
			}
		}
	}
	if withdrawals == 0 || len(resets) == 0 {
		t.Errorf("archive holds %d withdrawals and %d reset hours; want the injected storms and reset", withdrawals, len(resets))
	}
	for _, want := range []string{
		fmt.Sprintf("aggregated updates (post-clean): %d;", aggregated),
		fmt.Sprintf("collector-reset hours cleaned: %d\n", len(resets)),
		fmt.Sprintf("(>=70 of 73 neighbors): %d prefix-hours", severe70),
		fmt.Sprintf("(>=50 neighbors, >=75 withdrawals): %d prefix-hours", severeB),
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q, the archive's re-aggregated count:\n%s", want, stdout.String())
		}
	}
}

// TestInputChecks requires bad flag values to fail before any report is
// printed.
func TestInputChecks(t *testing.T) {
	for _, args := range [][]string{
		{"-hours", "0"},
		{"-hours", "-3"},
		{"-hours", "2", "-prefix", "10.0.0.0"},
		{"-hours", "2", "-prefix", "not-a-prefix"},
		{"-hours", "2", "-prefix", "10.0.1.7/24"},
		{"-hours", "2", "-prefix", "10.99.99.0/24"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%v: no error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, stdout.String())
		}
	}
}
