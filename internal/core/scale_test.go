package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/obs"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// megaVisit streams a realistically sparse internet-scale workload:
// each client is active on a handful of sites during a handful of
// hours (most clients idle most hours — the regime paging is built
// for), with per-client fault windows and a few blocked pairs
// so the downstream artifacts have structure to find.
func megaVisit(topo *workload.Topology, hours int64, perClient int, seed int64, visit func(*measure.Record)) {
	rng := rand.New(rand.NewSource(seed))
	nSites := len(topo.Websites)
	var r measure.Record
	for c := range topo.Clients {
		// Per-client activity footprint: 8 sites, 6 hours.
		sites := make([]int, 8)
		for i := range sites {
			sites[i] = rng.Intn(nSites)
		}
		activeHours := make([]int64, 6)
		for i := range activeHours {
			activeHours[i] = int64(rng.Intn(int(hours)))
		}
		badHour := activeHours[0] // this client's fault window
		for i := 0; i < perClient; i++ {
			s := sites[rng.Intn(len(sites))]
			hour := activeHours[rng.Intn(len(activeHours))]
			p := 0.03
			if c%11 == 0 && hour == badHour {
				p = 0.9
			}
			if c%97 == 0 && s == sites[0] {
				p = 1 // blocked pair
			}
			fail := rng.Float64() < p
			r = measure.Record{
				ClientIdx: int32(c),
				SiteIdx:   int32(s),
				At:        simnet.FromHours(hour).Add(time.Duration(rng.Intn(3600)) * time.Second),
				Category:  topo.Clients[c].Category,
				Conns:     1,
			}
			if fail {
				r.Stage = httpsim.StageTCP
				r.FailKind = httpsim.NoConnection
				r.Conns = 3
			} else {
				r.StatusCode = 200
				r.Bytes = 10240
				r.DataPkts = int16(8 + rng.Intn(12))
				r.Retransmits = int16(rng.Intn(2))
			}
			visit(&r)
		}
	}
}

// retainedMB reports the GC-settled heap growth attributable to build's
// return value — the retained-state measure EXPERIMENTS.md records for
// the paged layout (a lower bound on peak RSS that isolates the
// analyzer state from test-harness allocations).
func retainedMB(build func() *Analysis) (*Analysis, float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return a, float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
}

// denseStateMB estimates the bytes a flat layout (one array cell per
// roster-geometry cell) would hold for a geometry, from the per-cell
// sizes of each pass's cell type. At 10k x 1k x 168h it is within 1% of
// flat arrays measured directly (192 MB, EXPERIMENTS.md).
func denseStateMB(topo *workload.Topology, hours int) float64 {
	nC, nS := len(topo.Clients), len(topo.Websites)
	nR := 0
	for j := range topo.Websites {
		nR += len(topo.Websites[j].ReplicaAddrs)
	}
	var bytes int64
	bytes += int64(nC) * int64(nS) * 16       // pairs: pairCell
	bytes += int64(nC+nS) * int64(hours) * 8  // grids: gridCell
	bytes += int64(nC+nS) * int64(hours) * 12 // conns: connCell
	bytes += int64(nR) * int64(hours) * 8     // replicas: gridCell
	bytes += 2 * int64(nC) * 8                // traffic: per-client counters
	return float64(bytes) / (1 << 20)
}

// runArtifacts drives the full analyze path over an accumulator — the
// same artifact set `-artifacts all` renders — so the memory and
// throughput numbers cover analysis, not just ingest.
func runArtifacts(tb testing.TB, a *Analysis) {
	tb.Helper()
	pairs := a.PermanentPairs(0.9)
	a.TopFailingPairs(8)
	a.PermanentPairShare(pairs)
	a.EpisodeRateCDFs()
	a.MedianFailureRates()
	at := a.Attribute(0.5, pairs)
	a.ServerEpisodeStats(at)
	a.ServersWithEpisodes(at)
	a.CoLocatedSimilarityTop(at, 8)
	a.ReplicaAnalysis(at, a.ReplicaCensusDefault())
	a.ClientServerSpecific(at)
	if _, err := a.LossCorrelation(); err != nil {
		tb.Fatalf("loss correlation: %v", err)
	}
}

// TestMegaRosterMemory is the capacity acceptance check: a 100k-client
// x 1k-site synthetic roster must complete the full analyze artifact
// path in well under 2 GB of retained state, while the flat layout of
// the same geometry extrapolates to >= 5x the paged footprint (>= 4x at
// 10k clients).
func TestMegaRosterMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("mega-roster memory check skipped in -short mode")
	}
	const (
		hours     = 168 // one week of hourly bins
		perClient = 40
	)
	end := simnet.FromHours(hours)
	build := func(topo *workload.Topology) func() *Analysis {
		return func() *Analysis {
			a := NewAnalysis(topo, 0, end)
			megaVisit(topo, hours, perClient, 1, a.Add)
			return a
		}
	}

	topo10k := scenario.SyntheticTopology(10_000, 1_000)
	a10k, paged10kMB := retainedMB(build(topo10k))
	runArtifacts(t, a10k)
	flat10kMB := denseStateMB(topo10k, hours)
	t.Logf("10k x 1k x %dh: paged %.0f MB (%d cells), flat %.0f MB (%.1fx)",
		hours, paged10kMB, a10k.StateCells(), flat10kMB, flat10kMB/paged10kMB)
	if flat10kMB < 4*paged10kMB {
		t.Errorf("10k roster: flat %.0f MB is under 4x paged %.0f MB", flat10kMB, paged10kMB)
	}

	topo100k := scenario.SyntheticTopology(100_000, 1_000)
	a, pagedMB := retainedMB(build(topo100k))
	runArtifacts(t, a)
	flatMB := denseStateMB(topo100k, hours)
	reg := obs.NewRegistry()
	reg.Gauge("core_state_cells").Set(float64(a.StateCells()))
	reg.Gauge("core_state_retained_mb").Set(pagedMB)
	t.Logf("100k x 1k x %dh: paged %.0f MB retained (%d cells, %d txns), flat extrapolates to %.0f MB (%.1fx)",
		hours, pagedMB, a.StateCells(), a.TotalTxns(), flatMB, flatMB/pagedMB)
	if pagedMB > 2048 {
		t.Errorf("100k-client analyze retained %.0f MB, want < 2048", pagedMB)
	}
	if flatMB < 5*pagedMB {
		t.Errorf("flat extrapolation %.0f MB is under 5x paged %.0f MB", flatMB, pagedMB)
	}
}

// BenchmarkAnalyze ingests the mega-roster stream and runs every
// artifact's analysis.
func BenchmarkAnalyze(b *testing.B) {
	const (
		hours     = 168
		perClient = 40
	)
	end := simnet.FromHours(hours)
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			topo := scenario.SyntheticTopology(n, 1_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := NewAnalysis(topo, 0, end)
				megaVisit(topo, hours, perClient, 1, a.Add)
				runArtifacts(b, a)
				b.ReportMetric(float64(a.TotalTxns()), "txns/op")
			}
		})
	}
}
