package measure

import (
	"testing"
	"time"

	"webfail/internal/faults"
	"webfail/internal/httpsim"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// smallConfig builds a scaled experiment for unit tests: a handful of
// clients and sites over a short window.
func smallConfig(t *testing.T, nClients, nSites int, hours int64, scenarioSeed int64) Config {
	t.Helper()
	topo := scenario.PaperScaledTopology(nClients, nSites)
	end := simnet.FromHours(hours)
	sc := workload.BuildScenario(topo, scenario.PaperParams(scenarioSeed, 0, end))
	return Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
}

// quietConfig builds a scenario with all fault processes zeroed.
func quietConfig(t *testing.T, nClients, nSites int, hours int64) Config {
	t.Helper()
	topo := scenario.PaperScaledTopology(nClients, nSites)
	end := simnet.FromHours(hours)
	p := scenario.PaperParams(1, 0, end)
	zero := func(m map[workload.Category]faults.Process) {
		for k, v := range m {
			v.RatePerMonth = 0
			m[k] = v
		}
	}
	zero(p.MachineOff)
	zero(p.SiteConn)
	zero(p.ClientConn)
	zero(p.LDNSOutage)
	zero(p.LDNSFlaky)
	p.SiteOutage.RatePerMonth = 0
	p.ReplicaOutage.RatePerMonth = 0
	p.SiteOverload.RatePerMonth = 0
	p.AuthDNSOutage.RatePerMonth = 0
	p.HTTPError.RatePerMonth = 0
	p.BGPRate = 0
	p.TransientConnFail = 0
	p.TransientDNSFail = 0
	p.TransientHTTPErr = 0
	sc := workload.BuildScenario(topo, p)
	// BuildScenario also hand-places chronic episodes (the Intel pair,
	// the special servers, the 38 permanent blocks); a quiet world
	// replaces the whole timeline with an empty one.
	empty := faults.NewTimeline()
	empty.Freeze()
	sc.Timeline = empty
	return Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
}

func TestRunQuietScenarioAllSucceeds(t *testing.T) {
	cfg := quietConfig(t, 4, 4, 3)
	total, failed := 0, 0
	err := Run(cfg, func(r *Record) {
		total++
		if r.Failed() {
			failed++
		}
		if r.StatusCode != 200 || r.Bytes == 0 || r.Conns != 1 {
			t.Fatalf("unexpected success shape: %+v", r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no transactions")
	}
	if failed != 0 {
		t.Fatalf("failures in quiet scenario: %d of %d", failed, total)
	}
}

func TestRunProducesPlausibleFailureMix(t *testing.T) {
	cfg := smallConfig(t, 30, 0, 48, 7) // all 80 sites: the chronic servers drive TCP failures
	var total, failed, dns, tcp, httpN int
	err := Run(cfg, func(r *Record) {
		total++
		if !r.Failed() {
			return
		}
		failed++
		switch r.Stage {
		case httpsim.StageDNS:
			dns++
		case httpsim.StageTCP:
			tcp++
		case httpsim.StageHTTP:
			httpN++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total < 10000 {
		t.Fatalf("total = %d, too few", total)
	}
	rate := float64(failed) / float64(total)
	if rate < 0.002 || rate > 0.15 {
		t.Errorf("failure rate = %.3f%%, outside plausible band", rate*100)
	}
	if dns == 0 || tcp == 0 {
		t.Errorf("missing failure stages: dns=%d tcp=%d http=%d", dns, tcp, httpN)
	}
	if tcp < dns/4 {
		t.Errorf("TCP failures implausibly rare: dns=%d tcp=%d", dns, tcp)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := smallConfig(t, 10, 10, 12, 3)
	sum := func() (int, int, int64) {
		var n, f int
		var bytes int64
		_ = Run(cfg, func(r *Record) {
			n++
			if r.Failed() {
				f++
			}
			bytes += int64(r.Bytes)
		})
		return n, f, bytes
	}
	n1, f1, b1 := sum()
	n2, f2, b2 := sum()
	if n1 != n2 || f1 != f2 || b1 != b2 {
		t.Errorf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", n1, f1, b1, n2, f2, b2)
	}
}

func TestMachineOffSkipsTransactions(t *testing.T) {
	topo := scenario.PaperScaledTopology(1, 4)
	end := simnet.FromHours(10)
	p := scenario.PaperParams(1, 0, end)
	sc := workload.BuildScenario(topo, p)
	// Hand-build a timeline where the client is off for hours 2-6.
	tl := faults.NewTimeline()
	tl.Add(faults.Episode{
		Entity: faults.Entity("client:" + topo.Clients[0].Name),
		Kind:   faults.ClientMachineOff,
		Start:  simnet.FromHours(2), Duration: 4 * time.Hour, Severity: 1,
	})
	tl.Freeze()
	sc.Timeline = tl
	cfg := Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}

	perHour := map[int64]int{}
	_ = Run(cfg, func(r *Record) { perHour[r.At.Hour()]++ })
	for h := int64(2); h < 6; h++ {
		if perHour[h] != 0 {
			t.Errorf("hour %d has %d transactions despite machine off", h, perHour[h])
		}
	}
	if perHour[0] == 0 || perHour[8] == 0 {
		t.Error("transactions missing outside the off window")
	}
}

func TestClientConnectivityBecomesLDNSTimeout(t *testing.T) {
	topo := scenario.PaperScaledTopology(1, 4)
	end := simnet.FromHours(4)
	sc := workload.BuildScenario(topo, scenario.PaperParams(1, 0, end))
	tl := faults.NewTimeline()
	tl.Add(faults.Episode{
		Entity: faults.Entity("site:" + topo.Clients[0].Site),
		Kind:   faults.ClientConnectivity,
		Start:  simnet.FromHours(1), Duration: time.Hour, Severity: 1,
	})
	tl.Freeze()
	sc.Timeline = tl
	cfg := Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}

	inEpisode, ldnsTimeouts := 0, 0
	_ = Run(cfg, func(r *Record) {
		if r.At.Hour() == 1 {
			inEpisode++
			if r.DNS == DNSLDNSTimeout && r.Stage == httpsim.StageDNS {
				ldnsTimeouts++
			}
		}
	})
	if inEpisode == 0 {
		t.Fatal("no transactions in episode window")
	}
	if ldnsTimeouts != inEpisode {
		t.Errorf("LDNS timeouts = %d of %d during hard connectivity outage", ldnsTimeouts, inEpisode)
	}
}

func TestServerOutageBecomesNoConnection(t *testing.T) {
	topo := scenario.PaperScaledTopology(2, 2)
	end := simnet.FromHours(3)
	sc := workload.BuildScenario(topo, scenario.PaperParams(1, 0, end))
	tl := faults.NewTimeline()
	tl.Add(faults.Episode{
		Entity: faults.Entity("www:" + topo.Websites[0].Host),
		Kind:   faults.ServerOutage,
		Start:  simnet.FromHours(1), Duration: time.Hour, Severity: 1,
	})
	tl.Freeze()
	sc.Timeline = tl
	cfg := Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}

	affected, noConn := 0, 0
	_ = Run(cfg, func(r *Record) {
		if r.SiteIdx == 0 && r.At.Hour() == 1 {
			affected++
			if r.Stage == httpsim.StageTCP && r.FailKind == httpsim.NoConnection {
				noConn++
			}
		}
	})
	if affected == 0 || noConn != affected {
		t.Errorf("no-connection = %d of %d during site outage", noConn, affected)
	}
}

func TestPermanentPairBlocks(t *testing.T) {
	// Full topology so the permanent pairs exist; short window.
	topo := scenario.PaperTopology()
	end := simnet.FromHours(2)
	sc := workload.BuildScenario(topo, scenario.PaperParams(1, 0, end))
	cfg := Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}

	// Find a blocked pair: hp.com x www.sina.com.cn.
	var cIdx, sIdx int32 = -1, -1
	for i := range topo.Clients {
		if topo.Clients[i].Site == "hp.com" {
			cIdx = int32(i)
		}
	}
	for j := range topo.Websites {
		if topo.Websites[j].Host == "www.sina.com.cn" {
			sIdx = int32(j)
		}
	}
	if cIdx < 0 || sIdx < 0 {
		t.Fatal("pair not found in topology")
	}
	pairTotal, pairFailed := 0, 0
	_ = Run(cfg, func(r *Record) {
		if r.ClientIdx == cIdx && r.SiteIdx == sIdx {
			pairTotal++
			if r.Failed() {
				pairFailed++
			}
		}
	})
	if pairTotal == 0 {
		t.Fatal("pair never scheduled")
	}
	if pairFailed < pairTotal*9/10 {
		t.Errorf("blocked pair failed %d of %d, want ~all", pairFailed, pairTotal)
	}
}

func TestProxiedRecordsMaskDNS(t *testing.T) {
	// CN clients are indexes 121..126 in the full roster; scale to
	// include them.
	topo := scenario.PaperTopology()
	end := simnet.FromHours(1)
	sc := workload.BuildScenario(topo, scenario.PaperParams(2, 0, end))
	cfg := Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	sawProxied := false
	_ = Run(cfg, func(r *Record) {
		if r.Proxied {
			sawProxied = true
			if r.DNS != DNSMasked {
				t.Fatalf("proxied record with DNS outcome %v", r.DNS)
			}
		}
	})
	if !sawProxied {
		t.Error("no proxied records")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (&Config{}).Validate(); err == nil {
		t.Error("empty config accepted")
	}
	topo := scenario.PaperScaledTopology(1, 1)
	sc := workload.BuildScenario(topo, scenario.PaperParams(1, 0, 1))
	bad := Config{Topo: topo, Scenario: sc, Start: 5, End: 5}
	if err := bad.Validate(); err == nil {
		t.Error("empty window accepted")
	}
}

func TestRunWithNonzeroStartWindow(t *testing.T) {
	// A run over [100h, 110h) must index bins correctly and produce the
	// same per-bin behaviour as the equivalent zero-based window.
	topo := scenario.PaperScaledTopology(3, 4)
	start, end := simnet.FromHours(100), simnet.FromHours(110)
	p := scenario.PaperParams(5, start, end)
	p.TransientConnFail = 0
	p.TransientDNSFail = 0
	p.TransientHTTPErr = 0
	sc := workload.BuildScenario(topo, p)
	tl := faults.NewTimeline()
	tl.Add(faults.Episode{
		Entity: faults.Entity("www:" + topo.Websites[0].Host),
		Kind:   faults.ServerOutage,
		Start:  simnet.FromHours(105), Duration: time.Hour, Severity: 1,
	})
	tl.Freeze()
	sc.Timeline = tl
	cfg := Config{Topo: topo, Scenario: sc, Seed: 1, Start: start, End: end}

	var total int
	perHour := map[int64]int{}
	if err := Run(cfg, func(r *Record) {
		total++
		if r.At < start || r.At >= end {
			t.Fatalf("record at %v outside window", r.At)
		}
		if r.Failed() {
			perHour[r.At.Hour()]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no transactions")
	}
	for h, n := range perHour {
		if h != 105 {
			t.Errorf("failures at hour %d (%d), want only hour 105", h, n)
		}
	}
	if perHour[105] == 0 {
		t.Error("injected outage produced no failures")
	}
}
