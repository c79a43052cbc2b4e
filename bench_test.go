// Package webfail's root benchmark harness regenerates every table and
// figure of the paper's evaluation (Section 4), one benchmark per
// artifact, plus ablation benches for the design choices called out in
// DESIGN.md. Each benchmark logs the reproduced rows next to the paper's
// published values (run with -v to see them); timings measure the cost of
// the corresponding analysis over a shared fixture run.
//
// The fixture is a 96-hour full-roster (134 clients x 80 websites) fast-
// mode run — about 2.9M transactions — built once per process. The
// month-long reproduction (744 h) is the cmd/webfail default and its
// numbers are recorded in EXPERIMENTS.md.
package webfail

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"webfail/internal/faults"

	"webfail/internal/bgpsim"
	"webfail/internal/core"
	"webfail/internal/dataset"
	"webfail/internal/measure"
	"webfail/internal/obs"
	"webfail/internal/report"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

const (
	fixtureHours = 96
	fixtureSeed  = 2005
)

type fixture struct {
	topo  *workload.Topology
	sc    *workload.Scenario
	end   simnet.Time
	a     *core.Analysis
	pairs []core.PermanentPair
	at    *core.Attribution
	table bgpsim.PrefixHourTable
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		topo := scenario.PaperTopology()
		end := simnet.FromHours(fixtureHours)
		sc := workload.BuildScenario(topo, scenario.PaperParams(fixtureSeed, 0, end))
		a := core.NewAnalysis(topo, 0, end)
		cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
		if err := measure.Run(cfg, func(r *measure.Record) { a.Add(r) }); err != nil {
			panic(err)
		}
		pairs := a.PermanentPairs(0.9)
		table, _ := core.GenerateBGP(topo, sc, fixtureSeed^0x6b67)
		fix = &fixture{
			topo: topo, sc: sc, end: end, a: a,
			pairs: pairs,
			at:    a.Attribute(0.05, pairs),
			table: table,
		}
	})
	return fix
}

// BenchmarkRunFastMode measures raw fast-mode evaluation throughput
// (reported as transactions/op over a 4-hour full-roster slice).
func BenchmarkRunFastMode(b *testing.B) {
	topo := scenario.PaperTopology()
	end := simnet.FromHours(4)
	sc := workload.BuildScenario(topo, scenario.PaperParams(fixtureSeed, 0, end))
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := measure.Run(cfg, func(*measure.Record) { n++ }); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "txns/op")
	}
}

// BenchmarkRunFastModeInstrumented is BenchmarkRunFastMode with the
// full observability surface attached — metrics registry and a live
// progress reporter (writing to io.Discard) — so the delta against the
// uninstrumented bench is the whole-layer overhead. The hot path keeps
// plain scratch counters and folds once per shard, so the target is
// under 2% (recorded in EXPERIMENTS.md).
func BenchmarkRunFastModeInstrumented(b *testing.B) {
	topo := scenario.PaperTopology()
	end := simnet.FromHours(4)
	sc := workload.BuildScenario(topo, scenario.PaperParams(fixtureSeed, 0, end))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		prog := obs.NewProgress(io.Discard, "bench", "txns", 0, 1, 2*time.Second)
		prog.Start()
		cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end,
			Metrics: reg, Progress: prog}
		n := 0
		if err := measure.Run(cfg, func(*measure.Record) { n++ }); err != nil {
			b.Fatal(err)
		}
		prog.Stop()
		if got := reg.Counter("measure_txns_total").Value(); got != int64(n) {
			b.Fatalf("metrics counted %d txns, visit saw %d", got, n)
		}
		b.ReportMetric(float64(n), "txns/op")
	}
}

// BenchmarkRunFastModeTraced is BenchmarkRunFastMode with transaction
// tracing enabled (a live Tracer collecting first-K exemplars per
// failure class). Exemplar materialization only happens for the first
// few transactions of each class; every later transaction pays just
// the scratch-record fill and an Admit rejection, so the target delta
// against the untraced bench is under 5% (recorded in EXPERIMENTS.md).
func BenchmarkRunFastModeTraced(b *testing.B) {
	topo := scenario.PaperTopology()
	end := simnet.FromHours(4)
	sc := workload.BuildScenario(topo, scenario.PaperParams(fixtureSeed, 0, end))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTracer(3)
		cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end, Trace: tr}
		n := 0
		if err := measure.Run(cfg, func(*measure.Record) { n++ }); err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("tracer collected no exemplars")
		}
		b.ReportMetric(float64(n), "txns/op")
	}
}

// BenchmarkRunFastModeParallel measures sharded fast-mode throughput over
// the same 4-hour full-roster slice as BenchmarkRunFastMode, with
// GOMAXPROCS workers. The per-shard counters are cache-line padded so the
// bench measures evaluation, not false sharing.
func BenchmarkRunFastModeParallel(b *testing.B) {
	topo := scenario.PaperTopology()
	end := simnet.FromHours(4)
	sc := workload.BuildScenario(topo, scenario.PaperParams(fixtureSeed, 0, end))
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	shards := measure.EffectiveShards(len(topo.Clients), 0)
	type paddedCount struct {
		n int64
		_ [56]byte
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := make([]paddedCount, shards)
		if err := measure.RunParallel(cfg, shards, func(s int, _ *measure.Record) {
			counts[s].n++
		}); err != nil {
			b.Fatal(err)
		}
		var n int64
		for s := range counts {
			n += counts[s].n
		}
		b.ReportMetric(float64(n), "txns/op")
	}
}

// BenchmarkAnalysisMerge measures the deterministic shard-merge step in
// isolation: GOMAXPROCS shard accumulators from a 24-hour full-roster run
// are folded into a fresh accumulator each iteration. Merge consumes the
// shards, so each iteration rebuilds them from the shards' stored record
// streams outside the timer.
func BenchmarkAnalysisMerge(b *testing.B) {
	topo := scenario.PaperTopology()
	end := simnet.FromHours(24)
	sc := workload.BuildScenario(topo, scenario.PaperParams(fixtureSeed, 0, end))
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	shards := measure.EffectiveShards(len(topo.Clients), 0)
	streams := make([][]measure.Record, shards)
	if err := measure.RunParallel(cfg, shards, func(s int, r *measure.Record) {
		streams[s] = append(streams[s], *r)
	}); err != nil {
		b.Fatal(err)
	}
	accs := make([]*core.Analysis, shards)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for s, recs := range streams {
			accs[s] = core.NewAnalysis(topo, 0, end)
			for j := range recs {
				accs[s].Add(&recs[j])
			}
		}
		b.StartTimer()
		merged := core.NewAnalysis(topo, 0, end)
		for _, acc := range accs {
			if err := merged.Merge(acc); err != nil {
				b.Fatal(err)
			}
		}
		if merged.TotalTxns() == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkRunPacketMode measures full protocol-simulation throughput at a
// reduced scale (6 clients x 6 sites x 2 h). ns/txn and allocs/txn divide
// by performed transactions, world build included, so they compare across
// fixture sizes where ns/op does not.
func BenchmarkRunPacketMode(b *testing.B) {
	topo := scenario.PaperScaledTopology(6, 6)
	end := simnet.FromHours(2)
	sc := workload.BuildScenario(topo, scenario.PaperParams(fixtureSeed, 0, end))
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	pt := startPerTxn(b)
	for i := 0; i < b.N; i++ {
		n := 0
		if err := measure.RunPacket(cfg, func(*measure.Record) { n++ }); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "txns/op")
		pt.txns += n
	}
	pt.report()
}

// perTxn accumulates a packet benchmark's performed transactions so it
// can report per-transaction time and allocations.
type perTxn struct {
	b     *testing.B
	start runtime.MemStats
	txns  int
}

// startPerTxn resets the benchmark timer and snapshots the allocation
// count.
func startPerTxn(b *testing.B) *perTxn {
	pt := &perTxn{b: b}
	runtime.ReadMemStats(&pt.start)
	b.ResetTimer()
	return pt
}

// report stops the timer and reports ns/txn and allocs/txn over every
// iteration.
func (pt *perTxn) report() {
	pt.b.StopTimer()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if pt.txns == 0 {
		pt.b.Fatal("no transactions performed")
	}
	pt.b.ReportMetric(float64(pt.b.Elapsed().Nanoseconds())/float64(pt.txns), "ns/txn")
	pt.b.ReportMetric(float64(end.Mallocs-pt.start.Mallocs)/float64(pt.txns), "allocs/txn")
}

// BenchmarkRunPacketModeParallel measures packet-mode throughput across
// client-sharded worlds (4 shards): per-shard Network+Scheduler pairs run
// concurrently and the merged record stream is byte-identical to the
// serial engine's, so the speedup is pure wall-clock. The fixture is
// larger than BenchmarkRunPacketMode's (24 clients — compare txns/sec,
// not ns/op): with only a few hundred transactions per run, world setup
// dominates and sharding cannot pay for itself.
func BenchmarkRunPacketModeParallel(b *testing.B) {
	topo := scenario.PaperScaledTopology(24, 8)
	end := simnet.FromHours(2)
	sc := workload.BuildScenario(topo, scenario.PaperParams(fixtureSeed, 0, end))
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	pt := startPerTxn(b)
	for i := 0; i < b.N; i++ {
		n := 0
		if err := measure.RunPacketParallel(cfg, 4, func(_ int, r *measure.Record) { n++ }); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "txns/op")
		pt.txns += n
	}
	pt.report()
}

// BenchmarkTable3 regenerates the per-category transaction/connection
// failure table. Paper: PL 2.8%, BB 1.3%, DU 0.7%, CN 0.8%.
func BenchmarkTable3(b *testing.B) {
	f := getFixture(b)
	var rows []core.CategorySummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = f.a.Summary()
	}
	b.StopTimer()
	for _, r := range rows {
		b.Logf("Table3 %-3v txns=%d fail=%.2f%% connfail=%.2f%%", r.Category, r.Txns, 100*r.TxnFailRate(), 100*r.ConnFailRate())
	}
}

// BenchmarkFigure1 renders the failure-stage shares per category.
// Paper: TCP 57-64%, DNS 34-42%, HTTP <2%.
func BenchmarkFigure1(b *testing.B) {
	f := getFixture(b)
	var rows []core.CategorySummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = f.a.Summary()
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Category == workload.CN {
			continue
		}
		b.Logf("Fig1 %-3v DNS=%.0f%% TCP=%.0f%% HTTP=%.1f%% (paper DNS 34-42, TCP 57-64, HTTP <2)",
			r.Category, 100*r.DNSShare, 100*r.TCPShare, 100*r.HTTPShare)
	}
}

// BenchmarkTable4 regenerates the DNS failure breakdown.
// Paper: PL 83.3/9.7/7.0, BB 76/-/24, DU 77.7/-/22.3.
func BenchmarkTable4(b *testing.B) {
	f := getFixture(b)
	var rows []core.DNSBreakdownRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = f.a.DNSBreakdown()
	}
	b.StopTimer()
	for _, r := range rows {
		b.Logf("Table4 %-3v n=%d ldns=%.1f%% nonldns=%.1f%% err=%.1f%%",
			r.Category, r.FailureCount, 100*r.LDNSTimeout, 100*r.NonLDNS, 100*r.Error)
	}
}

// BenchmarkFigure2 regenerates the cumulative domain-contribution curves.
// Paper: LDNS-timeout curve flat across domains; 57%/30% of errors at
// brazzil/espn.
func BenchmarkFigure2(b *testing.B) {
	f := getFixture(b)
	var errsTop []core.DomainContribution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.CumulativeShare(f.a.DNSDomainSkew(0, true))
		_ = core.CumulativeShare(f.a.DNSDomainSkew(measure.DNSLDNSTimeout, false))
		errsTop = f.a.DNSDomainSkew(measure.DNSErrorResponse, false)
	}
	b.StopTimer()
	var total int64
	for _, e := range errsTop {
		total += e.Count
	}
	for i, e := range errsTop {
		if i >= 2 || total == 0 {
			break
		}
		b.Logf("Fig2 error-domain #%d: %s %.0f%% (paper: brazzil 57%%, espn 30%%)", i+1, e.Host, 100*float64(e.Count)/float64(total))
	}
}

// BenchmarkFigure3 regenerates the TCP failure-kind breakdown.
// Paper: no-connection PL 79%, DU 63%, BB 41%.
func BenchmarkFigure3(b *testing.B) {
	f := getFixture(b)
	var rows []core.TCPBreakdownRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = f.a.TCPBreakdown()
	}
	b.StopTimer()
	for _, r := range rows {
		b.Logf("Fig3 %-3v noconn=%.0f%% noresp=%.0f%% partial=%.0f%%",
			r.Category, 100*r.NoConnection, 100*r.NoResponse, 100*r.Partial)
	}
}

// BenchmarkFigure4 regenerates the episode failure-rate CDFs and the knee.
func BenchmarkFigure4(b *testing.B) {
	f := getFixture(b)
	var knee float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cCDF, sCDF := f.a.EpisodeRateCDFs()
		_ = cCDF
		_ = sCDF
		k, err := f.a.Knee()
		if err != nil {
			b.Fatal(err)
		}
		knee = k
	}
	b.StopTimer()
	b.Logf("Fig4 knee=%.1f%% (paper picks f in {5,10} from the knee)", 100*knee)
}

// BenchmarkTable5 runs the blame-attribution procedure at f=5% and 10%.
// Paper: 48.0/9.9/4.4/37.7 and 41.5/6.7/0.7/51.1.
func BenchmarkTable5(b *testing.B) {
	f := getFixture(b)
	var at5, at10 *core.Attribution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at5 = f.a.Attribute(0.05, f.pairs)
		at10 = f.a.Attribute(0.10, f.pairs)
	}
	b.StopTimer()
	for _, at := range []*core.Attribution{at5, at10} {
		b.Logf("Table5 f=%.0f%%: server=%.1f%% client=%.1f%% both=%.1f%% other=%.1f%%",
			100*at.F, 100*at.Share(core.BlameServer), 100*at.Share(core.BlameClient),
			100*at.Share(core.BlameBoth), 100*at.Share(core.BlameOther))
	}
}

// BenchmarkTable6 regenerates the failure-prone server list with spread.
func BenchmarkTable6(b *testing.B) {
	f := getFixture(b)
	var stats []core.ServerEpisodeStat
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats = f.a.ServerEpisodeStats(f.at)
	}
	b.StopTimer()
	for i, s := range stats {
		if i >= 5 {
			break
		}
		b.Logf("Table6 %-24s eps=%d spread=%.0f%% (paper: sina 764/78%%, iitb 759/85%%)", s.Site, s.EpisodeHours, 100*s.Spread)
	}
}

// BenchmarkTable7 computes co-located vs random pair similarity.
func BenchmarkTable7(b *testing.B) {
	f := getFixture(b)
	var co, rnd core.SimilarityTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co, _ = f.a.CoLocatedSimilarityTop(f.at, 0)
		rnd = f.a.RandomPairSimilarity(f.at, fixtureSeed, co.Pairs)
	}
	b.StopTimer()
	b.Logf("Table7 co-located: %d/%d/%d/%d/%d (paper 2/6/10/10/7)", co.Over75, co.Band50to75, co.Band25to50, co.Under25, co.Zero)
	b.Logf("Table7 random:     %d/%d/%d/%d/%d (paper 0/0/1/7/27)", rnd.Over75, rnd.Band50to75, rnd.Band25to50, rnd.Under25, rnd.Zero)
}

// BenchmarkTable8 lists the most active co-located pairs.
func BenchmarkTable8(b *testing.B) {
	f := getFixture(b)
	var sims []core.PairSimilarity
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sims = f.a.CoLocatedSimilarityTop(f.at, 4)
	}
	b.StopTimer()
	for _, p := range sims {
		b.Logf("Table8 %s/%s union=%d sim=%.1f%% (paper: intel 387 at 98.2%%)", p.A, p.B, p.UnionSize, 100*p.Similarity)
	}
}

// BenchmarkReplicaAnalysis regenerates the Section 4.5 census and
// total/partial split. Paper: 6/42/32 census; 85% total failures; totals
// on shared /24s.
func BenchmarkReplicaAnalysis(b *testing.B) {
	f := getFixture(b)
	var census core.ReplicaCensus
	var split core.ReplicaFailureSplit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		census = f.a.ReplicaCensusDefault()
		split = f.a.ReplicaAnalysis(f.at, census)
	}
	b.StopTimer()
	tp := split.Total + split.Partial
	if tp == 0 {
		tp = 1
	}
	b.Logf("Replicas census=%d/%d/%d (paper 6/42/32) multiShare=%.0f%% total=%.0f%% (paper 62%%, 85%%)",
		census.Zero, census.One, census.Multi, 100*split.ShareOfAllServerEpisodes, 100*float64(split.Total)/float64(tp))
}

// BenchmarkFigure5 assembles the howard.edu-analog time series.
func BenchmarkFigure5(b *testing.B) {
	f := getFixture(b)
	var points []core.TimelinePoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = f.a.ClientTimeline("planetlab1.howard.edu", f.table)
	}
	b.StopTimer()
	worst := core.TimelinePoint{}
	for _, p := range points {
		if p.ConnFails > worst.ConnFails {
			worst = p
		}
	}
	b.Logf("Fig5 worst hour %d: attempts=%d fails=%d streak=%d wdr=%d nbrs=%d",
		worst.Hour, worst.Attempts, worst.ConnFails, worst.Streak, worst.Withdrawals, worst.WithdrawNeighbors)
}

// BenchmarkFigure6 joins severe BGP instability with TCP failure rates.
// Paper: 111 severe hours, >80% of them above 5% failures; definition B
// finds 32 hours with ~80% above 10%.
func BenchmarkFigure6(b *testing.B) {
	f := getFixture(b)
	var corr *core.BGPCorrelation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corr = f.a.CorrelateBGP(f.table)
	}
	b.StopTimer()
	b.Logf("Fig6 severe70=%d frac>5%%=%.0f%%; severeB=%d frac>10%%=%.0f%% frac>20%%=%.0f%%",
		len(corr.Severe70), 100*core.FractionAbove(corr.Severe70, 0.05),
		len(corr.Severe50x75), 100*core.FractionAbove(corr.Severe50x75, 0.10),
		100*core.FractionAbove(corr.Severe50x75, 0.20))
}

// BenchmarkFigure7 assembles the kscy-analog time series (the 2-neighbor
// withdrawal with drastic impact; the hand-placed event sits at hour 644
// of the month run, so the fixture run only shows baseline here — the
// month run in EXPERIMENTS.md shows the event itself).
func BenchmarkFigure7(b *testing.B) {
	f := getFixture(b)
	var points []core.TimelinePoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points = f.a.ClientTimeline("planetlab1.kscy.internet2.planet-lab.org", f.table)
	}
	b.StopTimer()
	b.Logf("Fig7 timeline points=%d", len(points))
}

// BenchmarkTable9 regenerates the proxy residual-failure analysis.
// Paper: iitb ~5.3-5.7% for proxied CN clients vs 0.32% for others.
func BenchmarkTable9(b *testing.B) {
	f := getFixture(b)
	var rows []core.ProxyResidualRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = f.a.ProxyResidual(f.at, []string{"www.iitb.ac.in", "www.royal.gov.uk"})
	}
	b.StopTimer()
	for _, r := range rows {
		var cnMax float64
		for _, v := range r.PerClient {
			if v > cnMax {
				cnMax = v
			}
		}
		b.Logf("Table9 %-20s maxCN=%.2f%% nonCN=%.2f%% (paper iitb ~5.3-5.7 vs 0.32)", r.Site, 100*cnMax, 100*r.NonCN)
	}
}

// BenchmarkHeadlines regenerates the abstract's headline medians.
// Paper: 1.47% across clients, 1.63% across servers.
func BenchmarkHeadlines(b *testing.B) {
	f := getFixture(b)
	var mc, ms float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc, ms = f.a.MedianFailureRates()
	}
	b.StopTimer()
	corr, _ := f.a.LossCorrelation()
	b.Logf("Headlines medians client=%.2f%% server=%.2f%% (paper 1.47/1.63); lossCorr=%.2f (0.19); perm pairs=%d (38)",
		100*mc, 100*ms, corr, len(f.pairs))
}

// BenchmarkGroundTruth scores the f=5% attribution against the injected
// fault schedule and the detected permanent pairs against the injected
// blocks: the headline artifact's ground-truth lines, which
// BenchmarkHeadlines does not time.
func BenchmarkGroundTruth(b *testing.B) {
	f := getFixture(b)
	var gt *core.GroundTruthReport
	var tp, fn, fp int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gt = f.a.ValidateAttribution(f.at, f.sc)
		tp, fn, fp = f.a.DetectedPermanentBlocks(f.pairs, f.sc, f.topo)
	}
	b.StopTimer()
	b.Logf("GroundTruth over %d failures: server precision %.0f%% recall %.0f%%, client precision %.0f%% recall %.0f%%; permanent blocks %d correct, %d missed, %d spurious",
		gt.Total, 100*gt.ServerPrecision, 100*gt.ServerRecall, 100*gt.ClientPrecision, 100*gt.ClientRecall, tp, fn, fp)
}

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationEpisodeDuration re-runs attribution with 15-minute,
// 1-hour, and 6-hour episode bins — the Section 4.4.3 trade-off: short
// bins catch brief outages but starve on samples; long bins bury them.
func BenchmarkAblationEpisodeDuration(b *testing.B) {
	topo := scenario.PaperTopology()
	end := simnet.FromHours(48)
	sc := workload.BuildScenario(topo, scenario.PaperParams(fixtureSeed, 0, end))
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	for _, bin := range []time.Duration{15 * time.Minute, time.Hour, 6 * time.Hour} {
		bin := bin
		b.Run(bin.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := core.NewAnalysisOpts(topo, 0, end, core.Options{Bin: bin})
				if err := measure.Run(cfg, func(r *measure.Record) { a.Add(r) }); err != nil {
					b.Fatal(err)
				}
				pairs := a.PermanentPairs(0.9)
				at := a.Attribute(0.05, pairs)
				b.ReportMetric(100*at.Share(core.BlameServer), "server-side-%")
				b.ReportMetric(100*at.Share(core.BlameOther), "other-%")
			}
		})
	}
}

// BenchmarkAblationThresholdF sweeps the episode threshold beyond the
// paper's two settings.
func BenchmarkAblationThresholdF(b *testing.B) {
	f := getFixture(b)
	for _, thr := range []float64{0.02, 0.05, 0.10, 0.20} {
		thr := thr
		b.Run(fmt.Sprintf("f=%g", thr), func(b *testing.B) {
			var at *core.Attribution
			for i := 0; i < b.N; i++ {
				at = f.a.Attribute(thr, f.pairs)
			}
			b.ReportMetric(100*at.Share(core.BlameServer), "server-side-%")
			b.ReportMetric(100*at.Share(core.BlameOther), "other-%")
		})
	}
}

// BenchmarkAblationReplicaShare sweeps the replica qualification rule
// around the paper's 10%.
func BenchmarkAblationReplicaShare(b *testing.B) {
	f := getFixture(b)
	for _, share := range []float64{0.01, 0.05, 0.10, 0.25} {
		share := share
		b.Run(fmt.Sprintf("share=%g", share), func(b *testing.B) {
			var census core.ReplicaCensus
			for i := 0; i < b.N; i++ {
				census = f.a.ReplicaCensusAt(share)
			}
			b.ReportMetric(float64(census.Multi), "multi-replica-sites")
			b.ReportMetric(float64(census.Zero), "zero-replica-sites")
		})
	}
}

// BenchmarkAblationPermanentExclusion compares attribution with and
// without the Section 4.4.2 exclusion — without it, the 38 blocked pairs
// flood the episode grids.
func BenchmarkAblationPermanentExclusion(b *testing.B) {
	f := getFixture(b)
	for _, excl := range []bool{true, false} {
		excl := excl
		name := "with-exclusion"
		if !excl {
			name = "without-exclusion"
		}
		b.Run(name, func(b *testing.B) {
			var at *core.Attribution
			for i := 0; i < b.N; i++ {
				if excl {
					at = f.a.Attribute(0.05, f.pairs)
				} else {
					at = f.a.Attribute(0.05, nil)
				}
			}
			b.ReportMetric(float64(at.Total), "classified-failures")
			b.ReportMetric(100*at.Share(core.BlameServer), "server-side-%")
		})
	}
}

// --- Dataset layer ---

// datasetFixture builds the record stream and meta for the dataset
// benchmarks once: the failure subset of a 24-hour full-roster run
// (what `webfail -save` stores).
var datasetFixtureOnce struct {
	sync.Once
	topo *workload.Topology
	end  simnet.Time
	meta measure.DatasetMeta
	recs []measure.Record
}

func getDatasetFixture(tb testing.TB) ([]measure.Record, measure.DatasetMeta, *workload.Topology, simnet.Time) {
	tb.Helper()
	f := &datasetFixtureOnce
	f.Do(func() {
		f.topo = scenario.PaperTopology()
		f.end = simnet.FromHours(24)
		sc := workload.BuildScenario(f.topo, scenario.PaperParams(fixtureSeed, 0, f.end))
		cfg := measure.Config{Topo: f.topo, Scenario: sc, Seed: 1, Start: 0, End: f.end}
		f.meta = measure.DatasetMeta{
			Seed: fixtureSeed, StartUnix: simnet.Time(0).Unix(), EndUnix: f.end.Unix(),
			Clients: len(f.topo.Clients), Websites: len(f.topo.Websites),
		}
		if err := measure.Run(cfg, func(r *measure.Record) {
			f.meta.Transactions++
			if r.Failed() {
				f.meta.Failures++
				f.recs = append(f.recs, *r)
			}
		}); err != nil {
			panic(err)
		}
	})
	return f.recs, f.meta, f.topo, f.end
}

// saveDataset streams recs through one writer sink into w, the path
// `webfail -save` takes. The sink holds at most one chunk
// (DefaultChunkRecords records) at a time — peak memory is bounded by
// chunk size, not the stored record count, which is the property that
// lets `webfail -save` stream month-scale datasets.
func saveDataset(tb testing.TB, w io.Writer, meta measure.DatasetMeta, recs []measure.Record) {
	tb.Helper()
	dw, err := dataset.NewWriter(w, meta, dataset.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sink := dw.NewSink()
	for j := range recs {
		if err := sink.Append(&recs[j]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		tb.Fatal(err)
	}
}

// loadPasses are the passes a load ingests with: totals and traffic
// hold no grid, so a load tracks record I/O rather than the cost of
// constructing analyzer grids.
var loadPasses = []core.PassName{core.PassTotals, core.PassTraffic}

// loadDataset opens a saved dataset and ConsumeParallelOpts it with the
// given passes (none = all) across shards client-range workers (<= 0
// selects GOMAXPROCS); each worker reads only its overlapping chunks,
// decoding through reused buffers.
func loadDataset(tb testing.TB, data []byte, topo *workload.Topology, end simnet.Time, shards, want int, passes []core.PassName) *core.Analysis {
	tb.Helper()
	src, err := dataset.Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	a, err := core.ConsumeParallelOpts(topo, 0, end, src, core.IngestOptions{Shards: shards, Passes: passes})
	if err != nil {
		tb.Fatal(err)
	}
	if a.TotalTxns() != int64(want) {
		tb.Fatalf("ingested %d records, want %d", a.TotalTxns(), want)
	}
	return a
}

// BenchmarkDatasetSave measures the save path: columnar chunks that the
// sink encodes, compresses and appends itself.
func BenchmarkDatasetSave(b *testing.B) {
	recs, meta, _, _ := getDatasetFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out discardCounter
		saveDataset(b, &out, meta, recs)
		b.SetBytes(int64(out))
		b.ReportMetric(float64(len(recs)), "records/op")
	}
}

// BenchmarkDatasetLoadParallel measures the sharded load path end to
// end at one shard per GOMAXPROCS: each ingest shard reads, inflates
// and decodes its chunks inline.
func BenchmarkDatasetLoadParallel(b *testing.B) {
	recs, meta, topo, end := getDatasetFixture(b)
	var buf bytes.Buffer
	saveDataset(b, &buf, meta, recs)
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadDataset(b, data, topo, end, 0, len(recs), loadPasses)
		b.ReportMetric(float64(len(recs)), "records/op")
	}
}

// TestDatasetHeapBudget is the allocation-regression gate for the
// dataset layer: a save of the 24 h fixture (24,484 failure records) and
// its load at a fixed shard count must stay within their bounds on
// allocations and allocated bytes per operation. The comments give the
// measurement (heapCostPerOp, linux/amd64, Go 1.24). Allocation counts
// repeat exactly, and the fixture fills only three chunks, so each
// allocation bound sits 2 above its measurement: one more allocation per
// chunk written or read fails. Byte bounds sit at most 10% above theirs:
// a save takes its sink's gzip writer from a pool, and a fresh writer per
// sink (a 650 KB compressor) fails the save case. A load's cost grows with its shard count: each shard builds its own
// accumulator and takes its own decode scratch, and two shards read four
// chunks between them. The analyze case ingests with every pass at two
// shards and runs Table 5's attribution; its byte bound sits 84 KB above
// the measurement, under one more copy of the 24,484-record failure list
// (392 KB). Its count is the one that does not repeat: in some runs the
// exclusion maps, whose growth follows the runtime's random hash seed,
// take a table fewer (4,561 or 4,562 allocations and 37 KB less), and no
// run has read more than the measurement.
func TestDatasetHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what code allocates")
	}
	recs, meta, topo, end := getDatasetFixture(t)
	var buf bytes.Buffer
	saveDataset(t, &buf, meta, recs)
	data := buf.Bytes()
	cases := []struct {
		name                string
		maxAllocs, maxBytes uint64
		op                  func(t *testing.T)
	}{
		{"save", 95, 2_730_000, func(t *testing.T) { // 93, 2,484,464 B
			var out discardCounter
			saveDataset(t, &out, meta, recs)
		}},
		{"load-1-shard", 395, 247_000, func(t *testing.T) { // 393, 224,832 B
			loadDataset(t, data, topo, end, 1, len(recs), loadPasses)
		}},
		{"load-2-shards", 503, 476_000, func(t *testing.T) { // 501, 433,216 B
			loadDataset(t, data, topo, end, 2, len(recs), loadPasses)
		}},
		{"analyze-2-shards", 4_567, 1_650_000, func(t *testing.T) { // 4,565, 1,566,400 B
			a := loadDataset(t, data, topo, end, 2, len(recs), nil)
			a.Attribute(0.05, a.PermanentPairs(0.9))
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			allocs, allocated := heapCostPerOp(5, func() { tc.op(t) })
			t.Logf("%d allocations, %d bytes per operation", allocs, allocated)
			if allocs > tc.maxAllocs {
				t.Errorf("%d allocations per operation, want at most %d", allocs, tc.maxAllocs)
			}
			if allocated > tc.maxBytes {
				t.Errorf("%d bytes allocated per operation, want at most %d", allocated, tc.maxBytes)
			}
		})
	}
}

// raceEnabled is set under the race detector (race_test.go), which
// changes what code allocates: sync.Pool drops items at random under it.
var raceEnabled bool

// heapCostPerOp runs op once to warm its scratch and pools, then runs
// it runs more times and returns the median of those runs' allocations
// and of their allocated bytes. Like testing.AllocsPerRun it holds
// GOMAXPROCS at 1. The dataset reader takes its decode scratch from a
// sync.Pool, whose caches are per P and emptied by a collection, so the
// collector stays off while op runs. The pool then grows to as many
// scratches as there are overlapping Records calls, and at GOMAXPROCS 1
// whether a load's shards overlap depends on when the runtime preempts
// them: one run can pay for a scratch that every later run reuses. The
// median leaves that run out, where a mean would spread its cost over
// every run.
func heapCostPerOp(runs int, op func()) (allocs, allocated uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	op()
	counts := make([]uint64, runs)
	sizes := make([]uint64, runs)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		counts[i] = after.Mallocs - before.Mallocs
		sizes[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(counts)
	slices.Sort(sizes)
	return counts[runs/2], sizes[runs/2]
}

// BenchmarkAnalyzeSelective measures the ingest cost of the analyzer
// pass architecture: the same record stream is fed through an
// accumulator built with every pass ("all") and through accumulators
// built with only the passes single artifacts resolve to. The spread
// between "all" and the narrow selections is the work -artifacts
// avoids constructing and updating.
func BenchmarkAnalyzeSelective(b *testing.B) {
	recs, _, topo, end := getDatasetFixture(b)
	cases := []struct {
		name      string
		artifacts map[string]bool
	}{
		{"all", nil}, // empty selection = every artifact = every pass
		{"table1", map[string]bool{"table1": true}},
		{"table3", map[string]bool{"table3": true}},
		{"fig4", map[string]bool{"fig4": true}},
		{"fig5", map[string]bool{"fig5": true}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			passes, err := report.PassesFor(tc.artifacts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := core.NewAnalysisOpts(topo, 0, end, core.Options{Passes: passes})
				for j := range recs {
					a.Add(&recs[j])
				}
				if a.TotalTxns() != int64(len(recs)) {
					b.Fatalf("ingested %d records, want %d", a.TotalTxns(), len(recs))
				}
			}
			b.ReportMetric(float64(len(passes)), "passes")
			b.ReportMetric(float64(len(recs)), "records/op")
		})
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkMRTRoundTrip measures the BGP archive codec.
func BenchmarkMRTRoundTrip(b *testing.B) {
	topo := scenario.PaperTopology()
	gen := bgpsim.NewGenerator(1, topo.AllPrefixes())
	gen.GenerateBaseline(0, simnet.FromHours(744))
	updates := gen.Updates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf discardCounter
		if err := bgpsim.WriteMRT(&buf, updates); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf))
	}
}

type discardCounter int

func (d *discardCounter) Write(p []byte) (int, error) {
	*d += discardCounter(len(p))
	return len(p), nil
}

// BenchmarkBGPAggregate measures hourly aggregation over a month of churn.
func BenchmarkBGPAggregate(b *testing.B) {
	topo := scenario.PaperTopology()
	gen := bgpsim.NewGenerator(1, topo.AllPrefixes())
	gen.GenerateBaseline(0, simnet.FromHours(744))
	for i, pfx := range topo.AllPrefixes() {
		if i%3 == 0 {
			gen.InjectInstability(bgpsim.InstabilityEvent{
				Prefix: pfx, Start: simnet.FromHours(int64(i % 700)), Duration: 30 * time.Minute,
				NeighborFraction: 1, ExplorationUpdates: 2,
			})
		}
	}
	updates := gen.Updates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := bgpsim.Aggregate(updates)
		bgpsim.Clean(table, bgpsim.CleanConfig{ResetFraction: 0.5, TotalPrefixes: len(topo.AllPrefixes())})
	}
}

// BenchmarkAblationLDNSReliability is the what-if behind the paper's
// first implication (Section 5): "improving the reliability of the DNS
// lookups will go a long way towards improving the overall web browsing
// experience". The ablation zeroes every client-side DNS fault process
// (perfect first mile + LDNS) and compares overall failure rates.
func BenchmarkAblationLDNSReliability(b *testing.B) {
	topo := scenario.PaperTopology()
	end := simnet.FromHours(48)
	for _, reliable := range []bool{false, true} {
		reliable := reliable
		name := "baseline"
		if reliable {
			name = "perfect-ldns"
		}
		b.Run(name, func(b *testing.B) {
			p := scenario.PaperParams(fixtureSeed, 0, end)
			if reliable {
				zero := func(m map[workload.Category]faults.Process) {
					for k, v := range m {
						v.RatePerMonth = 0
						m[k] = v
					}
				}
				zero(p.SiteConn)
				zero(p.ClientConn)
				zero(p.LDNSOutage)
				zero(p.LDNSFlaky)
				p.TransientDNSFail = 0
			}
			sc := workload.BuildScenario(topo, p)
			cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
			for i := 0; i < b.N; i++ {
				a := core.NewAnalysis(topo, 0, end)
				if err := measure.Run(cfg, func(r *measure.Record) { a.Add(r) }); err != nil {
					b.Fatal(err)
				}
				rate := float64(a.TotalFails()) / float64(a.TotalTxns())
				b.ReportMetric(100*rate, "overall-fail-%")
			}
		})
	}
}
