package core

import (
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// mergeRecord builds a record for the merge tests.
func mergeRecord(client, site int32, at simnet.Time, stage httpsim.Stage, cat workload.Category) *measure.Record {
	r := &measure.Record{
		ClientIdx: client,
		SiteIdx:   site,
		At:        at,
		Category:  cat,
		Stage:     stage,
		Conns:     2,
		DataPkts:  5,
	}
	switch stage {
	case httpsim.StageDNS:
		r.DNS = measure.DNSLDNSTimeout
		r.Conns = 0
	case httpsim.StageTCP:
		r.FailKind = httpsim.NoConnection
	case httpsim.StageHTTP:
		r.StatusCode = 503
	default:
		r.StatusCode = 200
		r.Retransmits = 1
	}
	return r
}

// failureList returns the failures pass's records as one slice, in
// list order.
func failureList(a *Analysis) []FailureRec {
	var out []FailureRec
	a.fails.forEach(func(fr *FailureRec) { out = append(out, *fr) })
	return out
}

// TestMergeMatchesSequential feeds a hand-built record stream into one
// accumulator serially and into two client-disjoint accumulators that are
// merged, and requires identical state.
func TestMergeMatchesSequential(t *testing.T) {
	topo := scenario.PaperScaledTopology(4, 3)
	end := simnet.FromHours(3)

	recs := []*measure.Record{
		mergeRecord(0, 0, simnet.FromHours(0), httpsim.StageNone, workload.PL),
		mergeRecord(0, 1, simnet.FromHours(0)+1000, httpsim.StageTCP, workload.PL),
		mergeRecord(0, 1, simnet.FromHours(1), httpsim.StageTCP, workload.PL),
		mergeRecord(0, 2, simnet.FromHours(1)+1000, httpsim.StageDNS, workload.PL),
		mergeRecord(1, 0, simnet.FromHours(0), httpsim.StageHTTP, workload.PL),
		mergeRecord(1, 2, simnet.FromHours(2), httpsim.StageNone, workload.PL),
		mergeRecord(2, 0, simnet.FromHours(0), httpsim.StageTCP, workload.BB),
		mergeRecord(2, 1, simnet.FromHours(2), httpsim.StageNone, workload.BB),
		mergeRecord(3, 2, simnet.FromHours(1), httpsim.StageDNS, workload.DU),
		mergeRecord(3, 2, simnet.FromHours(2), httpsim.StageTCP, workload.DU),
	}

	serial := NewAnalysis(topo, 0, end)
	for _, r := range recs {
		serial.Add(r)
	}

	// Shard by client: [0, 2) and [2, 4). Records are client-major, so
	// feeding the shards in client order and merging in shard order must
	// reproduce the serial failure list too.
	left := NewAnalysis(topo, 0, end)
	right := NewAnalysis(topo, 0, end)
	for _, r := range recs {
		if r.ClientIdx < 2 {
			left.Add(r)
		} else {
			right.Add(r)
		}
	}
	merged := NewAnalysis(topo, 0, end)
	if err := merged.Merge(left); err != nil {
		t.Fatalf("Merge(left): %v", err)
	}
	if err := merged.Merge(right); err != nil {
		t.Fatalf("Merge(right): %v", err)
	}

	if !reflect.DeepEqual(serial, merged) {
		t.Errorf("merged analysis differs from serial:\n got %s\nwant %s", merged, serial)
	}
	if got, want := failureList(merged), failureList(serial); !reflect.DeepEqual(got, want) {
		t.Errorf("failure lists differ:\n got %+v\nwant %+v", got, want)
	}
	if got, want := merged.Summary(), serial.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("summaries differ:\n got %+v\nwant %+v", got, want)
	}
}

// runRecords returns client-major records for the clients [lo, hi): each
// client's share of n failures (DNS, TCP and HTTP in turn), then of ok
// successes, in time order, cycling through sites and hours.
func runRecords(topo *workload.Topology, hours int64, lo, hi, n, ok int) []*measure.Record {
	var out []*measure.Record
	stages := []httpsim.Stage{httpsim.StageTCP, httpsim.StageDNS, httpsim.StageHTTP}
	clients := hi - lo
	for c := lo; c < hi; c++ {
		mine, good := n/clients, ok/clients
		if c-lo < n%clients {
			mine++
		}
		if c-lo < ok%clients {
			good++
		}
		total := mine + good
		for i := 0; i < total; i++ {
			stage := httpsim.StageNone
			if i < mine {
				stage = stages[i%len(stages)]
			}
			at := simnet.Time(int64(i) * int64(simnet.FromHours(hours)) / int64(total))
			site := int32((c + i) % len(topo.Websites))
			out = append(out, mergeRecord(int32(c), site, at, stage, topo.Clients[c].Category))
		}
	}
	return out
}

// TestMergeThenAdd: after a.Merge(b), a takes more records, past a
// failure-block boundary, and b takes its pre-merge records again, over
// the very pages and blocks it held, the two adding in turn. a must equal
// a serial accumulator fed a's records, b's pre-merge records and a's
// later records, and keep every failure block full but the last. A merge
// that leaves b sharing a moved page, or a failure block a still fills,
// fails it. One case merges into a partly filled last block, the other
// into full blocks.
func TestMergeThenAdd(t *testing.T) {
	topo := scenario.SyntheticTopology(30, 10)
	const hours = 6
	end := simnet.FromHours(hours)
	for _, tc := range []struct {
		name   string
		aFails int
	}{
		{"partly-filled", failBlockRecs + 5},
		{"full", failBlockRecs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			aBefore := runRecords(topo, hours, 0, 10, tc.aFails, 300)
			bBefore := runRecords(topo, hours, 10, 20, 2*failBlockRecs+17, 300)
			aAfter := runRecords(topo, hours, 20, 30, failBlockRecs+9, 300)

			a, b := buildState(topo, hours, aBefore), buildState(topo, hours, bBefore)
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < max(len(aAfter), len(bBefore)); i++ {
				if i < len(aAfter) {
					a.Add(aAfter[i])
				}
				if i < len(bBefore) {
					b.Add(bBefore[i])
				}
			}

			serial := NewAnalysis(topo, 0, end)
			for _, recs := range [][]*measure.Record{aBefore, bBefore, aAfter} {
				for _, r := range recs {
					serial.Add(r)
				}
			}
			if got, want := fingerprint(a), fingerprint(serial); !reflect.DeepEqual(got, want) {
				t.Error("merged-then-added artifacts differ from serial")
				diffFingerprint(t, want, got)
			}
			if got, want := failureList(a), failureList(serial); !slices.Equal(got, want) {
				t.Errorf("failure list of %d records differs from the serial %d", len(got), len(want))
			}
			for k, blk := range a.fails.blocks[:len(a.fails.blocks)-1] {
				if len(blk) != failBlockRecs {
					t.Errorf("failure block %d of %d holds %d records, want %d",
						k, len(a.fails.blocks), len(blk), failBlockRecs)
				}
			}
		})
	}
}

// TestMergeStreaks checks that per-client failure streaks survive a merge
// of disjoint client sets (the case RunParallel produces).
func TestMergeStreaks(t *testing.T) {
	topo := scenario.PaperScaledTopology(2, 2)
	end := simnet.FromHours(1)

	acc := NewAnalysis(topo, 0, end)
	other := NewAnalysis(topo, 0, end)
	// Client 1 fails three in a row within the hour, then succeeds.
	for i := 0; i < 3; i++ {
		other.Add(mergeRecord(1, 0, simnet.Time(i*1000), httpsim.StageTCP, workload.PL))
	}
	other.Add(mergeRecord(1, 1, simnet.Time(5000), httpsim.StageNone, workload.PL))
	if err := acc.Merge(other); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// One hour per client row: cell [client*Hours + hour].
	if got := acc.conns.client.val(1).StreakMax; got != 3 {
		t.Errorf("merged StreakMax = %d, want 3", got)
	}
	if got := acc.conns.client.val(0).StreakMax; got != 0 {
		t.Errorf("untouched client StreakMax = %d, want 0", got)
	}
}

func TestMergeReplicaGrid(t *testing.T) {
	topo := scenario.PaperScaledTopology(2, 4)
	end := simnet.FromHours(2)
	var replica netip.Addr
	var site int32 = -1
	for j := range topo.Websites {
		if len(topo.Websites[j].ReplicaAddrs) > 0 {
			replica = topo.Websites[j].ReplicaAddrs[0]
			site = int32(j)
			break
		}
	}
	if site < 0 {
		t.Skip("no replica-addressed website in scaled topology")
	}

	a := NewAnalysis(topo, 0, end)
	b := NewAnalysis(topo, 0, end)
	r := mergeRecord(0, site, simnet.FromHours(1), httpsim.StageNone, workload.PL)
	r.ReplicaIP = replica
	a.Add(r)
	r2 := mergeRecord(1, site, simnet.FromHours(1), httpsim.StageTCP, workload.PL)
	r2.ReplicaIP = replica
	b.Add(r2)

	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	census := a.ReplicaCensusAt(0.01)
	if len(census.Qualifying[int(site)]) == 0 {
		t.Errorf("replica %v lost in merge: qualifying = %v", replica, census.Qualifying[int(site)])
	}
}

// TestMergeRejectsMismatch verifies the compatibility guard.
func TestMergeRejectsMismatch(t *testing.T) {
	topo := scenario.PaperScaledTopology(3, 3)
	end := simnet.FromHours(2)
	base := NewAnalysis(topo, 0, end)

	otherRoster := NewAnalysis(scenario.PaperScaledTopology(4, 3), 0, end)
	if err := base.Merge(otherRoster); err == nil {
		t.Error("merge of mismatched rosters succeeded, want error")
	}
	otherWindow := NewAnalysis(topo, 0, simnet.FromHours(5))
	if err := base.Merge(otherWindow); err == nil {
		t.Error("merge of mismatched windows succeeded, want error")
	}
	otherBin := NewAnalysisOpts(topo, 0, end, Options{Bin: 30 * time.Minute})
	if err := base.Merge(otherBin); err == nil {
		t.Error("merge of mismatched bins succeeded, want error")
	}
	if err := base.Merge(nil); err != nil {
		t.Errorf("merge of nil errored: %v", err)
	}
	// A valid merge must still work after the rejected attempts left
	// base untouched.
	fresh := NewAnalysis(topo, 0, end)
	fresh.Add(mergeRecord(0, 0, 0, httpsim.StageTCP, workload.PL))
	if err := base.Merge(fresh); err != nil {
		t.Fatalf("valid merge failed: %v", err)
	}
	if base.TotalTxns() != 1 || base.TotalFails() != 1 {
		t.Errorf("totals after merge = %d/%d, want 1/1", base.TotalTxns(), base.TotalFails())
	}
}

func TestMergeRejectsPassSetMismatch(t *testing.T) {
	topo := scenario.PaperScaledTopology(3, 3)
	end := simnet.FromHours(2)
	base := NewAnalysisOpts(topo, 0, end, Options{Passes: []PassName{PassTotals, PassTraffic}})

	other := NewAnalysisOpts(topo, 0, end, Options{Passes: []PassName{PassTotals, PassGrids}})
	err := base.Merge(other)
	if err == nil {
		t.Fatal("merge of mismatched pass sets succeeded, want error")
	}
	if !strings.Contains(err.Error(), "pass sets") {
		t.Errorf("error %q does not mention pass sets", err)
	}
	// base is untouched and still merges with a matching pass set.
	fresh := NewAnalysisOpts(topo, 0, end, Options{Passes: []PassName{PassTotals, PassTraffic}})
	fresh.Add(mergeRecord(0, 0, 0, httpsim.StageTCP, workload.PL))
	if err := base.Merge(fresh); err != nil {
		t.Fatalf("valid merge failed: %v", err)
	}
	if base.TotalTxns() != 1 {
		t.Errorf("TotalTxns = %d, want 1", base.TotalTxns())
	}
}

// TestSelectedPassSet checks construction-time selection: only the
// requested passes (plus the always-on totals) are materialized, and
// touching an unselected family panics rather than returning zeros.
func TestSelectedPassSet(t *testing.T) {
	topo := scenario.PaperScaledTopology(3, 3)
	end := simnet.FromHours(2)

	a := NewAnalysisOpts(topo, 0, end, Options{Passes: []PassName{PassGrids}})
	want := []PassName{PassTotals, PassGrids}
	if !slices.Equal(a.Passes(), want) {
		t.Errorf("Passes() = %v, want %v", a.Passes(), want)
	}
	a.Add(mergeRecord(0, 0, 0, httpsim.StageTCP, workload.PL))
	if a.TotalTxns() != 1 || a.TotalFails() != 1 {
		t.Errorf("totals = %d/%d, want 1/1", a.TotalTxns(), a.TotalFails())
	}
	if got := a.grids.client.val(0).Txns; got != 1 {
		t.Errorf("grid txns = %d, want 1", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("Summary() on an accumulator without the traffic pass should panic")
		}
	}()
	a.Summary()
}

// TestSelectedPassSetDefaults checks the empty selection still means
// "everything", so existing NewAnalysis callers see no behaviour change.
func TestSelectedPassSetDefaults(t *testing.T) {
	topo := scenario.PaperScaledTopology(3, 3)
	a := NewAnalysis(topo, 0, simnet.FromHours(2))
	if !slices.Equal(a.Passes(), AllPasses()) {
		t.Errorf("Passes() = %v, want all %v", a.Passes(), AllPasses())
	}
}

func TestUnknownPassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown pass name should panic")
		}
	}()
	NewAnalysisOpts(scenario.PaperScaledTopology(3, 3), 0, simnet.FromHours(2), Options{Passes: []PassName{"bogus"}})
}
