// Package report renders every table and figure of the paper's
// evaluation from an accumulated analysis, printing each measured
// artifact next to the paper's published value. cmd/webfail is a thin
// flag wrapper around this package.
package report

import (
	"fmt"
	"io"
	"sort"

	"webfail/internal/bgpsim"
	"webfail/internal/core"
	"webfail/internal/measure"
	"webfail/internal/textplot"
	"webfail/internal/workload"
)

// Reporter renders each reproduced artifact next to the paper's
// published value, writing to W.
type Reporter struct {
	W    io.Writer
	A    *core.Analysis
	Topo *workload.Topology
	Sc   *workload.Scenario
	Seed int64

	// cached heavyweight results
	pairs []core.PermanentPair
	at5   *core.Attribution
}

func (r *Reporter) attribution() (*core.Attribution, []core.PermanentPair) {
	if r.at5 == nil {
		r.pairs = r.A.PermanentPairs(0.9)
		r.at5 = r.A.Attribute(0.05, r.pairs)
	}
	return r.at5, r.pairs
}

func (r *Reporter) header(s string) { fmt.Fprintf(r.W, "\n===== %s =====\n", s) }

func (r *Reporter) table1() {
	r.header("Table 1: clients")
	byCat := map[workload.Category][]string{}
	sites := map[workload.Category]map[string]bool{}
	for i := range r.Topo.Clients {
		c := &r.Topo.Clients[i]
		byCat[c.Category] = append(byCat[c.Category], c.Name)
		if sites[c.Category] == nil {
			sites[c.Category] = map[string]bool{}
		}
		sites[c.Category][c.Site] = true
	}
	for _, cat := range []workload.Category{workload.PL, workload.DU, workload.CN, workload.BB} {
		fmt.Fprintf(r.W, "%-3v %3d clients across %2d sites\n", cat, len(byCat[cat]), len(sites[cat]))
	}
	fmt.Fprintln(r.W, "paper: PL 95 (64 sites), DU 26 virtual (9 cities), CN 5+1, BB 7")
}

func (r *Reporter) table2() {
	r.header("Table 2: websites")
	byGroup := map[workload.SiteGroup][]string{}
	for i := range r.Topo.Websites {
		w := &r.Topo.Websites[i]
		byGroup[w.Group] = append(byGroup[w.Group], w.Host)
	}
	for _, g := range []workload.SiteGroup{workload.USEdu, workload.USPopular, workload.USMisc,
		workload.IntlEdu, workload.IntlPopular, workload.IntlMisc} {
		fmt.Fprintf(r.W, "%-13s (%2d): %s\n", g, len(byGroup[g]), joinMax(byGroup[g], 5))
	}
}

func joinMax(ss []string, n int) string {
	if len(ss) <= n {
		return fmt.Sprint(ss)
	}
	return fmt.Sprintf("%v ... (+%d more)", ss[:n], len(ss)-n)
}

func (r *Reporter) table3fig1(showTable, showFig bool) {
	sums := r.A.Summary()
	if showTable {
		r.header("Table 3: transactions and connections by category")
		fmt.Fprintf(r.W, "%-4s %12s %16s %12s %16s\n", "cat", "trans", "failed trans", "conn", "failed conn")
		for _, s := range sums {
			conn := fmt.Sprintf("%d", s.Conns)
			fconn := fmt.Sprintf("%d (%.1f%%)", s.FailConns, 100*s.ConnFailRate())
			if s.Category == workload.CN {
				conn, fconn = "N/A", "N/A"
			}
			fmt.Fprintf(r.W, "%-4v %12d %9d (%.1f%%) %12s %16s\n",
				s.Category, s.Txns, s.FailTxns, 100*s.TxnFailRate(), conn, fconn)
		}
		fmt.Fprintln(r.W, "paper failure rates: PL 2.8%, BB 1.3%, DU 0.7%, CN 0.8% (conn: 2.6/0.7/0.5/N-A)")
	}
	if showFig {
		r.header("Figure 1: transaction failure rate by type and category")
		var bars []textplot.StackedBar
		for _, s := range sums {
			if s.Category == workload.CN {
				continue // the paper cannot break down CN either
			}
			bars = append(bars, textplot.StackedBar{
				Label: s.Category.String(),
				Note:  fmt.Sprintf("overall %.2f%%", 100*s.TxnFailRate()),
				Segments: []textplot.Segment{
					{Name: "DNS", Value: s.DNSShare, Rune: 'D'},
					{Name: "TCP", Value: s.TCPShare, Rune: 'T'},
					{Name: "HTTP", Value: s.HTTPShare, Rune: 'H'},
				},
			})
		}
		fmt.Fprint(r.W, textplot.StackedBars("share of failed transactions by stage", 60, bars))
		fmt.Fprintln(r.W, "paper: TCP 57-64%, DNS 34-42%, HTTP <2% for all categories")
	}
}

func (r *Reporter) table4() {
	r.header("Table 4: breakdown of DNS failures")
	fmt.Fprintf(r.W, "%-4s %9s %9s %10s %7s\n", "cat", "count", "LDNS t/o", "non-LDNS", "error")
	for _, row := range r.A.DNSBreakdown() {
		fmt.Fprintf(r.W, "%-4v %9d %8.1f%% %9.1f%% %6.1f%%\n",
			row.Category, row.FailureCount, 100*row.LDNSTimeout, 100*row.NonLDNS, 100*row.Error)
	}
	fmt.Fprintln(r.W, "paper: PL 83.3/9.7/7.0, BB 76.0/-/24.0, DU 77.7/-/22.3")
}

func (r *Reporter) fig2() {
	r.header("Figure 2: cumulative domain contribution to DNS failures")
	curves := map[string][]float64{
		"all":      core.CumulativeShare(r.A.DNSDomainSkew(0, true)),
		"ldns-t/o": core.CumulativeShare(r.A.DNSDomainSkew(measure.DNSLDNSTimeout, false)),
		"non-ldns": core.CumulativeShare(r.A.DNSDomainSkew(measure.DNSNonLDNSTimeout, false)),
		"errors":   core.CumulativeShare(r.A.DNSDomainSkew(measure.DNSErrorResponse, false)),
	}
	fmt.Fprint(r.W, textplot.CumulativeCurve("cumulative share vs domain rank", 60, 12, curves))
	errs := r.A.DNSDomainSkew(measure.DNSErrorResponse, false)
	if len(errs) > 0 {
		var total int64
		for _, e := range errs {
			total += e.Count
		}
		fmt.Fprintf(r.W, "top error domains: ")
		for i, e := range errs {
			if i >= 3 {
				break
			}
			fmt.Fprintf(r.W, "%s %.0f%%  ", e.Host, 100*float64(e.Count)/float64(total))
		}
		fmt.Fprintln(r.W, "\npaper: 57% of DNS errors at www.brazzil.com, 30% at www.espn.com")
	}
}

func (r *Reporter) fig3() {
	r.header("Figure 3: breakdown of TCP connection failures")
	var bars []textplot.StackedBar
	for _, row := range r.A.TCPBreakdown() {
		bars = append(bars, textplot.StackedBar{
			Label: row.Category.String(),
			Note:  fmt.Sprintf("n=%d", row.FailureCount),
			Segments: []textplot.Segment{
				{Name: "no-conn", Value: row.NoConnection, Rune: 'C'},
				{Name: "no-resp", Value: row.NoResponse, Rune: 'R'},
				{Name: "partial", Value: row.Partial, Rune: 'P'},
			},
		})
	}
	fmt.Fprint(r.W, textplot.StackedBars("share of TCP connection failures", 60, bars))
	fmt.Fprintln(r.W, "paper: no-connection PL 79%, DU 63%, BB 41%")
}

func (r *Reporter) fig4() {
	r.header("Figure 4: CDF of 1-hour failure rates")
	cCDF, sCDF := r.A.EpisodeRateCDFs()
	cx, cy := cCDF.Points(200)
	sx, sy := sCDF.Points(200)
	fmt.Fprint(r.W, textplot.CDFPlot("failure rate over 1-hour episodes", "episode failure rate", 60, 14, 0, 0.3,
		textplot.Series{Name: "clients", X: cx, Y: cy},
		textplot.Series{Name: "servers", X: sx, Y: sy},
	))
	if knee, err := r.A.Knee(); err == nil {
		fmt.Fprintf(r.W, "detected knee: %.1f%% (the paper picks f in {5%%, 10%%} from this knee)\n", 100*knee)
	}
}

func (r *Reporter) table5() {
	r.header("Table 5: blame classification of TCP failures")
	at5, pairs := r.attribution()
	connShare, txnShare := r.A.PermanentPairShare(pairs)
	fmt.Fprintf(r.W, "permanent pairs excluded: %d (paper 38); they carry %.1f%% of failed conns (paper 50.7%%), %.1f%% of failed txns (paper 13%%)\n",
		len(pairs), 100*connShare, 100*txnShare)
	fmt.Fprintf(r.W, "%-6s %12s %12s %8s %8s\n", "f", "server-side", "client-side", "both", "other")
	// f = 5% is the attribution every other artifact shares; only
	// f = 10% is computed for this table alone.
	for _, at := range []*core.Attribution{at5, r.A.Attribute(0.10, pairs)} {
		fmt.Fprintf(r.W, "%-6s %11.1f%% %11.1f%% %7.1f%% %7.1f%%\n",
			fmt.Sprintf("%.0f%%", 100*at.F), 100*at.Share(core.BlameServer), 100*at.Share(core.BlameClient),
			100*at.Share(core.BlameBoth), 100*at.Share(core.BlameOther))
	}
	fmt.Fprintln(r.W, "paper: f=5%: 48.0/9.9/4.4/37.7; f=10%: 41.5/6.7/0.7/51.1")
	ps := r.A.ClientServerSpecific(at5)
	fmt.Fprintf(r.W, "within \"other\": %d client-server-specific episode cells carrying %.0f%% of other-blamed failures (Section 2.2 category 3)\n",
		ps.Episodes, 100*ps.ShareOfOther)
}

func (r *Reporter) table6() {
	r.header("Table 6: most failure-prone servers and spread")
	at, _ := r.attribution()
	stats := r.A.ServerEpisodeStats(at)
	fmt.Fprintf(r.W, "%-26s %8s %10s %8s %7s\n", "server", "episodes", "coalesced", "longest", "spread")
	for i, s := range stats {
		if i >= 12 {
			break
		}
		fmt.Fprintf(r.W, "%-26s %8d %10d %7dh %6.1f%%\n", s.Site, s.EpisodeHours, s.Coalesced, s.LongestRun, 100*s.Spread)
	}
	one, multi := r.A.ServersWithEpisodes(at)
	total, coal := 0, 0
	for _, s := range stats {
		total += s.EpisodeHours
		coal += s.Coalesced
	}
	fmt.Fprintf(r.W, "totals: %d episode-hours (paper 2732), %d coalesced (473), mean duration %.2fh (5.78h)\n",
		total, coal, float64(total)/float64(max(coal, 1)))
	fmt.Fprintf(r.W, "servers with >=1 episode: %d (paper 56 of 80); with multiple: %d (39)\n", one, multi)
	fmt.Fprintln(r.W, "paper top: sina.com.cn 764 (78.4%), iitb.ac.in 759 (85.1%), sohu.com 243 (72.4%), craigslist.org 166 (70.9%)")
}

// table8Rows is the number of example pairs Table 8 prints — the k of
// its bounded top-k selection (core.CoLocatedSimilarityTop).
const table8Rows = 8

func (r *Reporter) tables78(show7, show8 bool) {
	at, _ := r.attribution()
	// One streaming pass yields the full Table 7 histogram and the
	// Table 8 example rows with O(k) retention; the selection order is
	// total, so the rows match a full sort-then-truncate rendering.
	co, top := r.A.CoLocatedSimilarityTop(at, table8Rows)
	if show7 {
		r.header("Table 7: co-located vs random pair similarity")
		rnd := core.Tabulate(r.A.RandomPairSimilarity(at, r.Seed, co.Pairs))
		fmt.Fprintf(r.W, "%-22s %9s %9s\n", "", "co-located", "random")
		rows := []struct {
			name   string
			c, rdm int
		}{
			{"# pairs", co.Pairs, rnd.Pairs},
			{"similarity > 75%", co.Over75, rnd.Over75},
			{"similarity 50-75%", co.Band50to75, rnd.Band50to75},
			{"similarity 25-50%", co.Band25to50, rnd.Band25to50},
			{"similarity < 25%, > 0", co.Under25, rnd.Under25},
			{"similarity = 0", co.Zero, rnd.Zero},
		}
		for _, row := range rows {
			fmt.Fprintf(r.W, "%-22s %9d %9d\n", row.name, row.c, row.rdm)
		}
		fmt.Fprintln(r.W, "paper co-located: 35 pairs = 2/6/10/10/7; random: 0/0/1/7/27")
	}
	if show8 {
		r.header("Table 8: example co-located pairs")
		fmt.Fprintf(r.W, "%-60s %6s %10s\n", "pair", "union", "similarity")
		for _, p := range top {
			fmt.Fprintf(r.W, "%-60s %6d %9.1f%%\n", p.A+" / "+p.B, p.UnionSize, 100*p.Similarity)
		}
		fmt.Fprintln(r.W, "paper: intel pair 387 episodes at 98.2%; columbia 2/3 52.2%, 1/3 5.2%; kaist pairs 50-60%")
	}
}

func (r *Reporter) replicas() {
	r.header("Section 4.5: replicated websites")
	census := r.A.ReplicaCensusDefault()
	fmt.Fprintf(r.W, "replica census (>=10%% of connections): zero=%d one=%d multi=%d (paper 6/42/32)\n",
		census.Zero, census.One, census.Multi)
	at, _ := r.attribution()
	split := r.A.ReplicaAnalysis(at, census)
	tp := split.Total + split.Partial
	if tp > 0 {
		fmt.Fprintf(r.W, "multi-replica server-side episodes: %.0f%% of all (paper 62%%); total %.0f%% vs partial %.0f%% (paper 85/15); all totals on same /24: %v\n",
			100*split.ShareOfAllServerEpisodes, 100*float64(split.Total)/float64(tp),
			100*float64(split.Partial)/float64(tp), split.SameSubnetTotals == split.Total)
	}
}

func (r *Reporter) bgp(show5, show6, show7 bool) {
	table, resets := core.GenerateBGP(r.Topo, r.Sc, r.Seed^0x6b67)
	if show5 {
		r.header("Figure 5: TCP failures and BGP activity (howard.edu analog)")
		r.timeline("planetlab1.howard.edu", table)
	}
	if show7 {
		r.header("Figure 7: the 2-neighbor withdrawal case (kscy analog)")
		r.timeline("planetlab1.kscy.internet2.planet-lab.org", table)
	}
	if show6 {
		r.header("Figure 6 / Section 4.6: BGP instability vs TCP failures")
		corr := r.A.CorrelateBGP(table)
		fmt.Fprintf(r.W, "collector resets cleaned: %d hour(s)\n", len(resets))
		fmt.Fprintf(r.W, ">=70-neighbor instability: %d prefix-hours of %d (%.3f%%; paper 111, <0.08%%)\n",
			len(corr.Severe70), corr.TotalPrefixHours,
			100*float64(len(corr.Severe70))/float64(max(corr.TotalPrefixHours, 1)))
		fmt.Fprintf(r.W, "  failure rate >5%% in %.0f%% of them (paper >80%%)\n", 100*core.FractionAbove(corr.Severe70, 0.05))
		fmt.Fprintf(r.W, ">=50 neighbors & >=75 withdrawals: %d prefix-hours (paper 32)\n", len(corr.Severe50x75))
		fmt.Fprintf(r.W, "  failure rate >10%% in %.0f%% (paper ~80%%), >20%% in %.0f%% (paper ~50%%)\n",
			100*core.FractionAbove(corr.Severe50x75, 0.10), 100*core.FractionAbove(corr.Severe50x75, 0.20))
		cdf := core.FailRateCDF(corr.Severe50x75)
		if cdf.Len() > 2 {
			xs, ys := cdf.Points(100)
			fmt.Fprint(r.W, textplot.CDFPlot("CDF of TCP failure rate during severe instability", "TCP failure rate", 60, 10, 0, 1,
				textplot.Series{Name: ">=50 nbrs & >=75 wdr", X: xs, Y: ys}))
		}
	}
}

func (r *Reporter) timeline(client string, table bgpsim.PrefixHourTable) {
	points := r.A.ClientTimeline(client, table)
	if len(points) == 0 {
		fmt.Fprintf(r.W, "client %s not in roster\n", client)
		return
	}
	xs := make([]float64, len(points))
	attempts := make([]float64, len(points))
	fails := make([]float64, len(points))
	streak := make([]float64, len(points))
	wdr := make([]float64, len(points))
	nbrs := make([]float64, len(points))
	for i, p := range points {
		xs[i] = float64(p.Unix)
		attempts[i] = float64(p.Attempts)
		fails[i] = float64(p.ConnFails)
		streak[i] = float64(p.Streak)
		wdr[i] = float64(p.Withdrawals)
		nbrs[i] = float64(p.WithdrawNeighbors)
	}
	fmt.Fprint(r.W, textplot.TimeSeries(client, 70, xs, []textplot.TimePanel{
		{Label: "TCP conn attempts", Y: attempts},
		{Label: "TCP conn failures", Y: fails},
		{Label: "longest fail streak", Y: streak},
		{Label: "BGP withdrawals", Y: wdr},
		{Label: "withdrawing nbrs", Y: nbrs},
	}))
}

func (r *Reporter) table9() {
	r.header("Table 9: proxy-related residual failures")
	at, _ := r.attribution()
	rows := r.A.ProxyResidual(at, []string{"www.iitb.ac.in", "www.royal.gov.uk"})
	for _, row := range rows {
		fmt.Fprintf(r.W, "%-20s", row.Site)
		names := make([]string, 0, len(row.PerClient))
		for n := range row.PerClient {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(r.W, "  %s=%.2f%%", n, 100*row.PerClient[n])
		}
		fmt.Fprintf(r.W, "  non-CN=%.2f%%\n", 100*row.NonCN)
	}
	fmt.Fprintln(r.W, "paper iitb: SEA1 5.31, SEA2 5.35, SF 5.33, UK 5.49, CHN 5.68, EXT 0.23, non-CN 0.32")
	fmt.Fprintln(r.W, "paper royal: SEA1 6.30, SEA2 6.21, SF 4.34, UK 7.74, CHN 6.94, EXT 0.04, non-CN 1.38")
}

func (r *Reporter) headlines() {
	r.header("Headline numbers")
	mc, ms := r.A.MedianFailureRates()
	fmt.Fprintf(r.W, "median failure rate: clients %.2f%% (paper 1.47%%), servers %.2f%% (paper 1.63%%)\n", 100*mc, 100*ms)
	fmt.Fprintf(r.W, "95th-pct client failure rate: %.1f%% (paper 10%%)\n", 100*r.A.ClientFailureRateQuantile(0.95))
	if corr, err := r.A.LossCorrelation(); err == nil {
		fmt.Fprintf(r.W, "loss-vs-failure correlation: %.2f (paper 0.19, \"weak\")\n", corr)
	}
	_, pairs := r.attribution()
	fmt.Fprintf(r.W, "permanent pairs: %d of %d (paper 38 of 10720)\n", len(pairs), len(r.Topo.Clients)*len(r.Topo.Websites))

	// Ground-truth validation — possible here because the fault schedule
	// is known, unlike in the original study (Section 4.4.6).
	at, _ := r.attribution()
	gt := r.A.ValidateAttribution(at, r.Sc)
	fmt.Fprintf(r.W, "ground-truth check of the attribution methodology: server-side precision %.0f%%/recall %.0f%%, client-side precision %.0f%%/recall %.0f%% over %d classified failures\n",
		100*gt.ServerPrecision, 100*gt.ServerRecall, 100*gt.ClientPrecision, 100*gt.ClientRecall, gt.Total)
	tp, fn, fp := r.A.DetectedPermanentBlocks(pairs, r.Sc, r.Topo)
	fmt.Fprintf(r.W, "permanent-pair detection vs injected blocks: %d correct, %d missed, %d spurious\n", tp, fn, fp)
}

// Run renders the selected artifacts ("" or nil set = everything).
func (r *Reporter) Run(sel map[string]bool) {
	want := func(k string) bool { return len(sel) == 0 || sel[k] }
	if want("table1") {
		r.table1()
	}
	if want("table2") {
		r.table2()
	}
	if want("table3") || want("fig1") {
		r.table3fig1(want("table3"), want("fig1"))
	}
	if want("table4") {
		r.table4()
	}
	if want("fig2") {
		r.fig2()
	}
	if want("fig3") {
		r.fig3()
	}
	if want("fig4") {
		r.fig4()
	}
	if want("table5") {
		r.table5()
	}
	if want("table6") {
		r.table6()
	}
	if want("table7") || want("table8") {
		r.tables78(want("table7"), want("table8"))
	}
	if want("replicas") {
		r.replicas()
	}
	if want("fig5") || want("fig6") || want("fig7") {
		r.bgp(want("fig5"), want("fig6"), want("fig7"))
	}
	if want("table9") {
		r.table9()
	}
	if want("headlines") {
		r.headlines()
	}
}
