package core

import (
	"net/netip"
	"testing"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// mkAnalysis builds an analyzer over a scaled topology and window.
func mkAnalysis(nClients, nSites int, hours int64) *Analysis {
	topo := scenario.PaperScaledTopology(nClients, nSites)
	return NewAnalysis(topo, 0, simnet.FromHours(hours))
}

// rec builds a record; outcome is set by the mutators below.
func rec(client, site int, hour int64, minute int) *measure.Record {
	return &measure.Record{
		ClientIdx:  int32(client),
		SiteIdx:    int32(site),
		At:         simnet.FromHours(hour).Add(time.Duration(minute) * time.Minute),
		Category:   workload.PL,
		Conns:      1,
		StatusCode: 200,
		Bytes:      10240,
		DataPkts:   9,
	}
}

func failTCP(r *measure.Record, kind httpsim.ConnFailKind) *measure.Record {
	r.Stage = httpsim.StageTCP
	r.FailKind = kind
	r.Conns = 2
	r.StatusCode = 0
	r.Bytes = 0
	return r
}

func failDNS(r *measure.Record, o measure.DNSOutcome) *measure.Record {
	r.Stage = httpsim.StageDNS
	r.DNS = o
	r.Conns = 0
	r.StatusCode = 0
	r.Bytes = 0
	return r
}

func failHTTP(r *measure.Record, code int16) *measure.Record {
	r.Stage = httpsim.StageHTTP
	r.StatusCode = code
	return r
}

func TestSummaryCounts(t *testing.T) {
	a := mkAnalysis(4, 4, 2)
	for i := 0; i < 10; i++ {
		a.Add(rec(0, 0, 0, i))
	}
	a.Add(failTCP(rec(0, 1, 0, 30), httpsim.NoConnection))
	a.Add(failDNS(rec(0, 2, 0, 40), measure.DNSLDNSTimeout))
	a.Add(failHTTP(rec(0, 3, 0, 50), 503))

	if a.TotalTxns() != 13 || a.TotalFails() != 3 {
		t.Fatalf("totals = %d/%d", a.TotalTxns(), a.TotalFails())
	}
	sum := a.Summary()
	var pl *CategorySummary
	for i := range sum {
		if sum[i].Category == workload.PL {
			pl = &sum[i]
		}
	}
	if pl.Txns != 13 || pl.FailTxns != 3 {
		t.Errorf("PL = %+v", pl)
	}
	third := 1.0 / 3.0
	if !almost(pl.DNSShare, third) || !almost(pl.TCPShare, third) || !almost(pl.HTTPShare, third) {
		t.Errorf("shares = %v/%v/%v", pl.DNSShare, pl.TCPShare, pl.HTTPShare)
	}
	// Connection counting: 10 + 2 + 0 + 1 = 13 conns, 2 failed.
	if pl.Conns != 13 || pl.FailConns != 2 {
		t.Errorf("conns = %d/%d", pl.Conns, pl.FailConns)
	}
}

func almost(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestDNSBreakdownAndSkew(t *testing.T) {
	a := mkAnalysis(4, 4, 1)
	for i := 0; i < 8; i++ {
		a.Add(failDNS(rec(0, i%4, 0, i), measure.DNSLDNSTimeout))
	}
	a.Add(failDNS(rec(1, 1, 0, 20), measure.DNSNonLDNSTimeout))
	a.Add(failDNS(rec(1, 2, 0, 30), measure.DNSErrorResponse))

	rows := a.DNSBreakdown()
	var pl *DNSBreakdownRow
	for i := range rows {
		if rows[i].Category == workload.PL {
			pl = &rows[i]
		}
	}
	if pl.FailureCount != 10 {
		t.Fatalf("count = %d", pl.FailureCount)
	}
	if !almost(pl.LDNSTimeout, 0.8) || !almost(pl.NonLDNS, 0.1) || !almost(pl.Error, 0.1) {
		t.Errorf("breakdown = %+v", pl)
	}

	// Skew: errors concentrated on one site.
	skew := a.DNSDomainSkew(measure.DNSErrorResponse, false)
	if len(skew) != 1 || skew[0].Host != a.Topo.Websites[2].Host {
		t.Errorf("error skew = %+v", skew)
	}
	all := a.DNSDomainSkew(0, true)
	if len(all) != 4 {
		t.Errorf("all-domains skew = %+v", all)
	}
	cum := CumulativeShare(all)
	if len(cum) != 4 || !almost(cum[len(cum)-1], 1.0) {
		t.Errorf("cumulative = %v", cum)
	}
}

func TestTCPBreakdown(t *testing.T) {
	a := mkAnalysis(2, 2, 1)
	for i := 0; i < 6; i++ {
		a.Add(failTCP(rec(0, 0, 0, i), httpsim.NoConnection))
	}
	for i := 0; i < 3; i++ {
		a.Add(failTCP(rec(0, 1, 0, 10+i), httpsim.NoResponse))
	}
	a.Add(failTCP(rec(1, 0, 0, 20), httpsim.PartialResponse))
	rows := a.TCPBreakdown()
	var pl *TCPBreakdownRow
	for i := range rows {
		if rows[i].Category == workload.PL {
			pl = &rows[i]
		}
	}
	if pl.FailureCount != 10 || !almost(pl.NoConnection, 0.6) || !almost(pl.NoResponse, 0.3) || !almost(pl.Partial, 0.1) {
		t.Errorf("breakdown = %+v", pl)
	}
}

func TestAttributionServerSide(t *testing.T) {
	// Server 0 fails for everyone in hour 1; client traffic otherwise
	// clean. All hour-1 failures to server 0 must classify server-side.
	// The roster must be wide enough that one failing server keeps each
	// client's aggregate rate below f (the same reason the paper uses
	// 80 servers: 1 server's total failure is only 1.25% of a client's
	// transactions).
	a := mkAnalysis(25, 25, 3)
	for h := int64(0); h < 3; h++ {
		for c := 0; c < 25; c++ {
			for s := 0; s < 25; s++ {
				r := rec(c, s, h, (c*25+s)%60)
				if h == 1 && s == 0 {
					failTCP(r, httpsim.NoConnection)
				}
				a.Add(r)
			}
		}
	}
	at := a.Attribute(0.05, nil)
	if at.Total != 25 {
		t.Fatalf("classified = %d, want 25", at.Total)
	}
	if at.Counts[BlameServer] != at.Total {
		t.Errorf("server-side = %d of %d; counts=%v", at.Counts[BlameServer], at.Total, at.Counts)
	}
	if at.ServerEpisodeHours[0].Len() != 1 || !at.ServerEpisodeHours[0].Has(1) {
		t.Errorf("server episode hours = %v", at.ServerEpisodeHours[0].Hours())
	}
	// Spread: all clients affected.
	stats := a.ServerEpisodeStats(at)
	if len(stats) != 1 || stats[0].Spread != 1.0 || stats[0].EpisodeHours != 1 {
		t.Errorf("episode stats = %+v", stats)
	}
	one, multi := a.ServersWithEpisodes(at)
	if one != 1 || multi != 0 {
		t.Errorf("servers with episodes = %d/%d", one, multi)
	}
	checkSpread(t, a, at)

	// Partial spreads on a roster wider than one 64-client word: in
	// hour 1, server s < 5 fails for every client divisible by s+2.
	a = mkAnalysis(130, 25, 3)
	for h := int64(0); h < 3; h++ {
		for c := 0; c < 130; c++ {
			for s := 0; s < 25; s++ {
				r := rec(c, s, h, (c*25+s)%60)
				if h == 1 && s < 5 && c%(s+2) == 0 {
					failTCP(r, httpsim.NoConnection)
				}
				a.Add(r)
			}
		}
	}
	at = a.Attribute(0.05, nil)
	stats = a.ServerEpisodeStats(at)
	if len(stats) != 5 {
		t.Fatalf("partial-spread episode stats = %+v, want 5 servers", stats)
	}
	for _, st := range stats {
		if st.Spread <= 0 || st.Spread >= 1 {
			t.Errorf("%s: spread %v, want a partial one", st.Site, st.Spread)
		}
	}
	checkSpread(t, a, at)
}

// checkSpread requires each Table 6 row's spread to equal a map-based
// count of the distinct clients behind the site's server- or
// both-blamed failures, over the roster size.
func checkSpread(t *testing.T, a *Analysis, at *Attribution) {
	t.Helper()
	affected := map[string]map[int32]bool{}
	for _, tf := range walkTags(a, at) {
		if tf.Blame != BlameServer && tf.Blame != BlameBoth {
			continue
		}
		host := a.Topo.Websites[tf.Site].Host
		if affected[host] == nil {
			affected[host] = map[int32]bool{}
		}
		affected[host][tf.Client] = true
	}
	for _, st := range a.ServerEpisodeStats(at) {
		if want := float64(len(affected[st.Site])) / float64(len(a.Topo.Clients)); st.Spread != want {
			t.Errorf("%s: spread %v, want %d distinct clients of %d = %v",
				st.Site, st.Spread, len(affected[st.Site]), len(a.Topo.Clients), want)
		}
	}
}

func TestAttributionClientSide(t *testing.T) {
	// Client 0 fails against everyone in hour 0 (a connectivity-level
	// TCP failure, e.g. proxied client); others clean. Wide roster so
	// one client's failures stay below each server's threshold.
	a := mkAnalysis(25, 25, 2)
	for h := int64(0); h < 2; h++ {
		for c := 0; c < 25; c++ {
			for s := 0; s < 25; s++ {
				r := rec(c, s, h, (c*25+s)%60)
				if h == 0 && c == 0 {
					failTCP(r, httpsim.NoConnection)
				}
				a.Add(r)
			}
		}
	}
	at := a.Attribute(0.05, nil)
	if at.Counts[BlameClient] != at.Total || at.Total == 0 {
		t.Errorf("client-side = %d of %d (%v)", at.Counts[BlameClient], at.Total, at.Counts)
	}
}

func TestAttributionBothAndOther(t *testing.T) {
	a := mkAnalysis(25, 25, 2)
	// Hour 0: client 0 fails everywhere AND server 0 fails for everyone
	// -> failures between them are "both". One lone failure in hour 1
	// between healthy parties -> "other".
	for h := int64(0); h < 2; h++ {
		for c := 0; c < 25; c++ {
			for s := 0; s < 25; s++ {
				r := rec(c, s, h, (c*25+s)%60)
				if h == 0 && (c == 0 || s == 0) {
					failTCP(r, httpsim.NoConnection)
				}
				a.Add(r)
			}
		}
	}
	// The lone "other" failure.
	a.Add(failTCP(rec(2, 2, 1, 59), httpsim.NoConnection))
	at := a.Attribute(0.05, nil)
	if at.Counts[BlameBoth] != 1 { // client 0 x server 0
		t.Errorf("both = %d, want 1 (%v)", at.Counts[BlameBoth], at.Counts)
	}
	if at.Counts[BlameClient] != 24 || at.Counts[BlameServer] != 24 {
		t.Errorf("client/server = %d/%d, want 24/24 (%v)", at.Counts[BlameClient], at.Counts[BlameServer], at.Counts)
	}
	if at.Counts[BlameOther] != 1 {
		t.Errorf("other = %d, want 1 (%v)", at.Counts[BlameOther], at.Counts)
	}
	if s := at.Share(BlameOther); s <= 0 || s >= 1 {
		t.Errorf("share = %v", s)
	}
}

func TestPermanentPairDetectionAndExclusion(t *testing.T) {
	a := mkAnalysis(3, 3, 4)
	// Pair (0,0) fails always; everything else clean.
	for h := int64(0); h < 4; h++ {
		for c := 0; c < 3; c++ {
			for s := 0; s < 3; s++ {
				for i := 0; i < 8; i++ {
					r := rec(c, s, h, i*7+s)
					if c == 0 && s == 0 {
						failTCP(r, httpsim.NoConnection)
					}
					a.Add(r)
				}
			}
		}
	}
	pairs := a.PermanentPairs(0.9)
	if len(pairs) != 1 || pairs[0].Client != 0 || pairs[0].Site != 0 {
		t.Fatalf("pairs = %+v", pairs)
	}
	connShare, txnShare := a.PermanentPairShare(pairs)
	if connShare != 1.0 || txnShare != 1.0 {
		t.Errorf("share = %v/%v, want 1/1 (only failures)", connShare, txnShare)
	}
	// With the pair excluded, nothing is left to classify and no
	// episodes are manufactured.
	at := a.Attribute(0.05, pairs)
	if at.Total != 0 {
		t.Errorf("classified %d failures despite exclusion", at.Total)
	}
	for c, eps := range at.ClientEpisodeHours {
		if eps.Len() != 0 {
			t.Errorf("client %d has episodes %v despite exclusion", c, eps.Hours())
		}
	}
}

func TestEpisodeCDFAndKnee(t *testing.T) {
	a := mkAnalysis(4, 4, 6)
	// Mostly clean hours; a few very bad ones.
	for h := int64(0); h < 6; h++ {
		for c := 0; c < 4; c++ {
			for s := 0; s < 4; s++ {
				for i := 0; i < 4; i++ {
					r := rec(c, s, h, i*12+s)
					if h == 5 && c == 0 {
						failTCP(r, httpsim.NoConnection)
					}
					a.Add(r)
				}
			}
		}
	}
	cs, ss := a.EpisodeRateCDFs()
	if cs.Len() == 0 || ss.Len() == 0 {
		t.Fatal("empty CDFs")
	}
	if cs.Max() != 1.0 {
		t.Errorf("client max rate = %v, want 1.0", cs.Max())
	}
	f, err := a.Knee()
	if err != nil {
		t.Fatal(err)
	}
	if f < 0 || f > 0.5 {
		t.Errorf("knee = %v", f)
	}
}

func TestCoalesceRuns(t *testing.T) {
	cases := []struct {
		in            []int
		runs, longest int
	}{
		{nil, 0, 0},
		{[]int{3}, 1, 1},
		{[]int{1, 2, 3}, 1, 3},
		{[]int{1, 3, 5}, 3, 1},
		{[]int{1, 2, 5, 6, 7, 9}, 3, 3},
	}
	for _, tc := range cases {
		r, l := coalesceRuns(tc.in)
		if r != tc.runs || l != tc.longest {
			t.Errorf("coalesceRuns(%v) = %d,%d want %d,%d", tc.in, r, l, tc.runs, tc.longest)
		}
	}
}

func TestSimilarity(t *testing.T) {
	topo := scenario.PaperTopology()
	a := NewAnalysis(topo, 0, simnet.FromHours(4))
	// Find the two Intel nodes (co-located).
	var i1, i2 int = -1, -1
	for i := range topo.Clients {
		if topo.Clients[i].Site == "pittsburgh.intel-research.net" {
			if i1 < 0 {
				i1 = i
			} else {
				i2 = i
			}
		}
	}
	// Both fail against all sites in hours 0-2 (shared client-side
	// episodes); the rest of the fleet is clean.
	for h := int64(0); h < 4; h++ {
		for _, c := range []int{i1, i2} {
			for s := 0; s < 10; s++ {
				for i := 0; i < 2; i++ {
					r := rec(c, s, h, i*20+s)
					if h < 3 {
						failTCP(r, httpsim.NoConnection)
					}
					a.Add(r)
				}
			}
		}
		// Background traffic for everyone else.
		for c := 0; c < len(topo.Clients); c++ {
			if c == i1 || c == i2 {
				continue
			}
			for s := 0; s < 10; s++ {
				a.Add(rec(c, s, h, s))
			}
		}
	}
	at := a.Attribute(0.05, nil)
	table, sims := a.CoLocatedSimilarityTop(at, 35)
	if table.Pairs != 35 || len(sims) != 35 {
		t.Fatalf("pairs = %d, listed %d, want 35", table.Pairs, len(sims))
	}
	// The Intel pair tops the list with perfect similarity.
	top := sims[0]
	if top.Similarity != 1.0 || top.UnionSize != 3 {
		t.Errorf("top pair = %+v", top)
	}
	if table.Over75 != 1 {
		t.Errorf("table = %+v, want exactly one >75%% pair", table)
	}
	rt := a.RandomPairSimilarity(at, 42, 35)
	if rt.Pairs != 35 {
		t.Fatalf("random pairs = %d", rt.Pairs)
	}
	if rt.Zero < 30 {
		t.Errorf("random pairs mostly zero expected, got %+v", rt)
	}
}

func TestReplicaCensusAndAnalysis(t *testing.T) {
	a := mkAnalysis(4, 10, 3)
	topo := a.Topo
	// Traffic: every client hits every site each hour; replicas get
	// the ReplicaIP of the first replica except site 0, where traffic
	// alternates between two replicas (both qualify).
	multiSite := -1
	for s := range topo.Websites {
		if len(topo.Websites[s].ReplicaAddrs) >= 2 {
			multiSite = s
			break
		}
	}
	if multiSite < 0 {
		t.Skip("no multi-replica site in the first 10")
	}
	for h := int64(0); h < 3; h++ {
		for c := 0; c < 4; c++ {
			for s := 0; s < 10; s++ {
				for i := 0; i < 4; i++ {
					r := rec(c, s, h, i*12+s)
					w := &topo.Websites[s]
					if len(w.ReplicaAddrs) > 0 {
						r.ReplicaIP = w.ReplicaAddrs[0]
						if s == multiSite && i%2 == 1 {
							r.ReplicaIP = w.ReplicaAddrs[1]
						}
					}
					// Site multiSite down entirely in hour 1.
					if h == 1 && s == multiSite {
						failTCP(r, httpsim.NoConnection)
					}
					a.Add(r)
				}
			}
		}
	}
	census := a.ReplicaCensusDefault()
	if got := len(census.Qualifying[multiSite]); got != 2 {
		t.Fatalf("qualifying replicas = %d, want 2", got)
	}
	at := a.Attribute(0.05, nil)
	split := a.ReplicaAnalysis(at, census)
	if split.MultiReplicaEpisodes == 0 {
		t.Fatal("no multi-replica episodes")
	}
	if split.Total == 0 || split.Partial != 0 {
		t.Errorf("split = %+v, want all-total", split)
	}
	if split.SameSubnetTotals != split.Total {
		t.Errorf("same-subnet totals = %d of %d", split.SameSubnetTotals, split.Total)
	}
}

func TestBGPCorrelationEndToEnd(t *testing.T) {
	topo := scenario.PaperTopology()
	end := simnet.FromHours(48)
	params := scenario.PaperParams(5, 0, end)
	params.BGPRate = 3.0 // plenty of events in a short window
	sc := workload.BuildScenario(topo, params)

	a := NewAnalysis(topo, 0, end)
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 2, Start: 0, End: end}
	if err := measure.Run(cfg, func(r *measure.Record) { a.Add(r) }); err != nil {
		t.Fatal(err)
	}
	table, _ := GenerateBGP(topo, sc, 9)
	corr := a.CorrelateBGP(table)
	if len(corr.Severe70) == 0 {
		t.Fatal("no severe instability hours found")
	}
	// The paper: failure rate over 5% in over 80% of severe hours. At
	// this scale require a clear majority.
	if frac := FractionAbove(corr.Severe70, 0.05); frac < 0.5 {
		t.Errorf("fraction of severe hours with >5%% failures = %v", frac)
	}
	cdf := FailRateCDF(corr.Severe70)
	if cdf.Len() != len(corr.Severe70) {
		t.Error("CDF size mismatch")
	}
	// Timeline for the howard client has BGP columns.
	tl := a.ClientTimeline("planetlab1.howard.edu", table)
	if len(tl) != 48 {
		t.Fatalf("timeline = %d points", len(tl))
	}
	if tl[0].Unix != simnet.Epoch {
		t.Errorf("timeline unix = %d", tl[0].Unix)
	}
}

func TestProxyResidual(t *testing.T) {
	topo := scenario.PaperTopology()
	a := NewAnalysis(topo, 0, simnet.FromHours(2))
	// Identify iitb and a CN client.
	var iitb int = -1
	for s := range topo.Websites {
		if topo.Websites[s].Host == "www.iitb.ac.in" {
			iitb = s
		}
	}
	var cn, other int = -1, -1
	for c := range topo.Clients {
		if topo.Clients[c].Proxied && cn < 0 {
			cn = c
		}
		if !topo.Clients[c].Proxied && topo.Clients[c].Category == workload.PL && other < 0 {
			other = c
		}
	}
	// Clean background traffic plus CN failures to iitb only.
	for h := int64(0); h < 2; h++ {
		for _, c := range []int{cn, other} {
			for s := 0; s < len(topo.Websites); s++ {
				r := rec(c, s, h, s%60)
				if c == cn && s == iitb {
					failTCP(r, httpsim.NoConnection)
				}
				a.Add(r)
			}
		}
	}
	at := a.Attribute(0.05, nil)
	rows := a.ProxyResidual(at, []string{"www.iitb.ac.in", "www.royal.gov.uk"})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var iitbRow *ProxyResidualRow
	for i := range rows {
		if rows[i].Site == "www.iitb.ac.in" {
			iitbRow = &rows[i]
		}
	}
	cnName := topo.Clients[cn].Name
	if iitbRow.PerClient[cnName] <= iitbRow.NonCN {
		t.Errorf("CN residual %v not above non-CN %v", iitbRow.PerClient[cnName], iitbRow.NonCN)
	}
}

func TestLossCorrelationRuns(t *testing.T) {
	a := mkAnalysis(6, 4, 2)
	for h := int64(0); h < 2; h++ {
		for c := 0; c < 6; c++ {
			for s := 0; s < 4; s++ {
				r := rec(c, s, h, s*10)
				r.Retransmits = int16(c) // increasing loss by client
				if c >= 4 {
					failTCP(r, httpsim.NoConnection)
				}
				a.Add(r)
			}
		}
	}
	corr, err := a.LossCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	if corr <= 0 {
		t.Errorf("correlation = %v, want positive for constructed data", corr)
	}
	_, _ = a.MedianFailureRates()
	_ = a.ClientFailureRateQuantile(0.95)
	if a.String() == "" {
		t.Error("String empty")
	}
}

func TestRecordIgnoredReplica(t *testing.T) {
	// Records with a CDN (non-replica) IP must not panic or corrupt.
	a := mkAnalysis(1, 1, 1)
	r := rec(0, 0, 0, 0)
	r.ReplicaIP = netip.MustParseAddr("198.18.0.2")
	a.Add(r)
	if a.TotalTxns() != 1 {
		t.Error("record not counted")
	}
}

func TestClientServerSpecific(t *testing.T) {
	a := mkAnalysis(25, 25, 2)
	// Pair (3,7) fails all 4 accesses in hour 0 — a pair-specific
	// problem: neither endpoint's aggregate crosses f (4 of 25*4=100
	// accesses is 4%). Everything else clean; one lone failure (1 of 4
	// accesses from its pair that hour) stays below the pair threshold
	// count.
	for h := int64(0); h < 2; h++ {
		for c := 0; c < 25; c++ {
			for s := 0; s < 25; s++ {
				for i := 0; i < 4; i++ {
					r := rec(c, s, h, (i*13+s)%60)
					if h == 0 && c == 3 && s == 7 {
						failTCP(r, httpsim.NoConnection)
					}
					if h == 1 && c == 9 && s == 9 && i == 0 {
						failTCP(r, httpsim.NoConnection)
					}
					a.Add(r)
				}
			}
		}
	}
	at := a.Attribute(0.05, nil)
	if at.Counts[BlameOther] != 5 {
		t.Fatalf("other = %d, want 5 (%v)", at.Counts[BlameOther], at.Counts)
	}
	ps := a.ClientServerSpecific(at)
	if ps.Episodes != 1 {
		t.Errorf("pair-specific episodes = %d, want 1", ps.Episodes)
	}
	if ps.Failures != 4 {
		t.Errorf("pair-specific failures = %d, want 4", ps.Failures)
	}
	if ps.ShareOfOther <= 0.7 || ps.ShareOfOther > 1 {
		t.Errorf("share = %v", ps.ShareOfOther)
	}
}
