package workload

import (
	"fmt"
	"testing"
	"time"

	"webfail/internal/faults"
	"webfail/internal/simnet"
)

// testRoster builds a small literal roster exercising the addressing
// machinery: co-located PL pairs, a dialup client, proxied and unproxied
// CN clients, and websites covering the CDN / single / multi / spread
// replica policies. Paper-roster assertions live in internal/scenario.
func testRoster() ([]Client, []Website) {
	cs := []Client{
		{Name: "pl1.alpha.edu", Category: PL, Site: "alpha.edu", Region: "us-east", RoundsPerHour: 4},
		{Name: "pl2.alpha.edu", Category: PL, Site: "alpha.edu", Region: "us-east", RoundsPerHour: 4},
		{Name: "pl1.beta.edu", Category: PL, Site: "beta.edu", Region: "us-west", RoundsPerHour: 4},
		{Name: "dialup.sea.i.example.net", Category: DU, Site: "pop.sea.i", Region: "us-west", RoundsPerHour: 0.25},
		{Name: "CN1", Category: CN, Site: "corp.hq", Region: "us-west", Proxied: true, RoundsPerHour: 4},
		{Name: "CN1EXT", Category: CN, Site: "corp.hq", Region: "us-west", Proxied: false, RoundsPerHour: 4},
		{Name: "bb1.example.net", Category: BB, Site: "home.one", Region: "us-east", RoundsPerHour: 4},
		{Name: "bb2.example.net", Category: BB, Site: "home.one", Region: "us-east", RoundsPerHour: 4},
	}
	ws := []Website{
		{Host: "www.cdn.example", Group: USPopular, Region: "us-east", Replicas: 0, IndexSize: 10240},
		{Host: "www.single.example", Group: USMisc, Region: "us-west", Replicas: 1, IndexSize: 10240},
		{Host: "www.multi.example", Group: USPopular, Region: "us-east", Replicas: 4, IndexSize: 10240},
		{Host: "www.spread.example", Group: IntlPopular, Region: "europe", Replicas: 3, SpreadReplicas: true, IndexSize: 10240},
	}
	return cs, ws
}

// scaledTestTopology generates n clients (PL, 2 per site) and m websites
// for schedule-machinery tests.
func scaledTestTopology(n, m int) *Topology {
	var cs []Client
	for i := 0; i < n; i++ {
		cs = append(cs, Client{
			Name:     fmt.Sprintf("c%03d.site%02d.edu", i, i/2),
			Category: PL, Site: fmt.Sprintf("site%02d.edu", i/2),
			Region: "us-east", RoundsPerHour: 4,
		})
	}
	var ws []Website
	for j := 0; j < m; j++ {
		ws = append(ws, Website{
			Host: fmt.Sprintf("www.w%02d.example", j), Group: USMisc,
			Region: "us-east", Replicas: 1 + j%3, IndexSize: 10240,
		})
	}
	return NewRosterTopology(cs, ws)
}

// testParams builds a minimal literal ScenarioParams for plumbing tests.
func testParams(seed int64, start, end simnet.Time) ScenarioParams {
	proc := func(kind faults.Kind, rate float64) faults.Process {
		return faults.Process{Kind: kind, RatePerMonth: rate,
			MeanDuration: 15 * time.Minute, MinDuration: time.Minute,
			MaxDuration: 2 * time.Hour, SeverityLow: 0.85, SeverityHigh: 1}
	}
	perCat := func(kind faults.Kind, rate float64) map[Category]faults.Process {
		m := make(map[Category]faults.Process)
		for _, cat := range []Category{PL, DU, CN, BB} {
			m[cat] = proc(kind, rate)
		}
		return m
	}
	return ScenarioParams{
		Seed: seed, Start: start, End: end,
		MachineOff:     perCat(faults.ClientMachineOff, 2),
		SiteConn:       perCat(faults.ClientConnectivity, 2),
		ClientConn:     perCat(faults.ClientConnectivity, 3),
		LDNSOutage:     perCat(faults.LDNSOutage, 1),
		LDNSFlaky:      perCat(faults.LDNSOutage, 1),
		WANOutage:      perCat(faults.PathOutage, 1),
		SiteFactorMean: 1.5,
		SiteOutage:     proc(faults.ServerOutage, 1),
		ReplicaOutage:  proc(faults.ServerOutage, 0.5),
		SiteOverload:   proc(faults.ServerOverload, 1),
		AuthDNSOutage:  proc(faults.AuthDNSOutage, 0.5),
		HTTPError:      proc(faults.ServerHTTPError, 0.2),
		BGPRate:        1, BGPGlobalFraction: 0.7,
	}
}

func TestTopologyAddressing(t *testing.T) {
	cs, ws := testRoster()
	topo := NewRosterTopology(cs, ws)
	seen := map[string]bool{}
	for i := range topo.Clients {
		c := &topo.Clients[i]
		for _, a := range []string{c.Addr.String(), c.LDNS.String()} {
			if a == "invalid IP" {
				t.Fatalf("client %s bad addr", c.Name)
			}
		}
		if seen[c.Addr.String()] {
			t.Errorf("duplicate client addr %v", c.Addr)
		}
		seen[c.Addr.String()] = true
		if !c.Prefix.Contains(c.Addr) || !c.Prefix.Contains(c.LDNS) {
			t.Errorf("client %s addr outside prefix", c.Name)
		}
		if c.Proxied && !c.Proxy.IsValid() {
			t.Errorf("proxied client %s without proxy addr", c.Name)
		}
		if !c.Proxied && c.Proxy.IsValid() {
			t.Errorf("unproxied client %s with proxy addr", c.Name)
		}
	}
	for i := range topo.Websites {
		w := &topo.Websites[i]
		if len(w.ReplicaAddrs) != w.Replicas {
			t.Errorf("%s replicas = %d, want %d", w.Host, len(w.ReplicaAddrs), w.Replicas)
		}
		for _, ra := range w.ReplicaAddrs {
			if seen[ra.String()] {
				t.Errorf("duplicate replica addr %v (%s)", ra, w.Host)
			}
			seen[ra.String()] = true
			inPrefix := false
			for _, p := range w.Prefixes {
				if p.Contains(ra) {
					inPrefix = true
				}
			}
			if !inPrefix {
				t.Errorf("%s replica %v outside prefixes", w.Host, ra)
			}
		}
	}
	// Co-located clients share a prefix.
	a := topo.ClientByName("pl1.alpha.edu")
	b := topo.ClientByName("pl2.alpha.edu")
	if a == nil || b == nil || a.Prefix != b.Prefix {
		t.Error("co-located clients should share a prefix")
	}
	// SpreadReplicas sites get two prefixes; later replicas live on the
	// second.
	sp := topo.Website("www.spread.example")
	if sp == nil || len(sp.Prefixes) != 2 {
		t.Fatalf("spread site prefixes = %v, want 2", sp.Prefixes)
	}
	if !sp.Prefixes[0].Contains(sp.ReplicaAddrs[0]) || !sp.Prefixes[1].Contains(sp.ReplicaAddrs[1]) {
		t.Error("spread replicas not split across prefixes")
	}
	if topo.Website("nonexistent") != nil || topo.ClientByName("nope") != nil {
		t.Error("lookups for unknown names should be nil")
	}
}

func TestCoLocatedPairs(t *testing.T) {
	cs, ws := testRoster()
	topo := NewRosterTopology(cs, ws)
	var pairs [][2]int
	topo.EachCoLocatedPair(func(i, j int) { pairs = append(pairs, [2]int{i, j}) })
	// alpha.edu contributes 1 PL pair, home.one 1 BB pair; the CN site is
	// excluded (proxies confound client-side attribution).
	if len(pairs) != 2 {
		t.Fatalf("co-located pairs = %v, want 2", pairs)
	}
	for _, p := range pairs {
		a, b := &topo.Clients[p[0]], &topo.Clients[p[1]]
		if p[0] >= p[1] {
			t.Errorf("pair %v not in roster order", p)
		}
		if a.Site != b.Site {
			t.Errorf("pair %v not co-located", p)
		}
		if a.Category == CN {
			t.Errorf("CN client in pair %v", p)
		}
	}
}

func TestAllPrefixesUnique(t *testing.T) {
	cs, ws := testRoster()
	topo := NewRosterTopology(cs, ws)
	pfxs := topo.AllPrefixes()
	seen := map[string]bool{}
	for _, p := range pfxs {
		if seen[p.String()] {
			t.Errorf("duplicate prefix %v", p)
		}
		seen[p.String()] = true
	}
	// 5 client sites + 4 website prefixes + 1 extra spread prefix.
	if len(pfxs) != 10 {
		t.Errorf("prefixes = %d, want 10", len(pfxs))
	}
}

func TestScheduleDeterminismAndShape(t *testing.T) {
	topo := scaledTestTopology(4, 10)
	end := simnet.FromHours(2)
	collect := func() []Transaction {
		var out []Transaction
		ForEachTransaction(topo, 42, 0, end, func(tx *Transaction) { out = append(out, *tx) })
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("txn %d differs", i)
		}
	}
	// Every transaction in window; per-client times nondecreasing.
	lastAt := map[int]simnet.Time{}
	perClientSite := map[[2]int]int{}
	for _, tx := range a {
		if tx.At < 0 || tx.At >= end {
			t.Fatalf("txn outside window: %v", tx.At)
		}
		if tx.At < lastAt[tx.ClientIdx] {
			t.Fatalf("client %d schedule not monotonic", tx.ClientIdx)
		}
		lastAt[tx.ClientIdx] = tx.At
		perClientSite[[2]int{tx.ClientIdx, tx.SiteIdx}]++
	}
	// ~4 rounds/hour x 2h = 8 visits per site per client (PL).
	for key, n := range perClientSite {
		c := topo.Clients[key[0]]
		if c.Category == PL && (n < 6 || n > 10) {
			t.Errorf("client %d site %d visits = %d, want ~8", key[0], key[1], n)
		}
	}
}

func TestScheduleRandomizesOrder(t *testing.T) {
	topo := scaledTestTopology(1, 20)
	// Each round visits all 20 sites exactly once, so rounds are
	// consecutive 20-transaction windows.
	var seq []int
	ForEachTransaction(topo, 7, 0, simnet.FromHours(1), func(tx *Transaction) {
		seq = append(seq, tx.SiteIdx)
	})
	if len(seq) < 40 || len(seq)%20 != 0 {
		t.Fatalf("transactions = %d, want multiple of 20 >= 40", len(seq))
	}
	var rounds [][]int
	for i := 0; i+20 <= len(seq); i += 20 {
		round := seq[i : i+20]
		distinct := map[int]bool{}
		for _, s := range round {
			distinct[s] = true
		}
		if len(distinct) != 20 {
			t.Fatalf("round starting at %d does not visit each site once", i)
		}
		rounds = append(rounds, round)
	}
	same := true
	for i := range rounds[0] {
		if i < len(rounds[1]) && rounds[0][i] != rounds[1][i] {
			same = false
		}
	}
	if same {
		t.Error("consecutive rounds have identical order; shuffle broken")
	}
}

func TestExpectedTransactions(t *testing.T) {
	topo := scaledTestTopology(2, 10) // two PL clients, 4 rounds/hour
	const seed = 11
	got := ExpectedTransactions(topo, seed, 0, simnet.FromHours(10))
	// The estimate must match what ForEachTransaction actually emits,
	// including the `at >= end` truncation of each client's final round.
	emitted := 0
	ForEachTransaction(topo, seed, 0, simnet.FromHours(10), func(*Transaction) { emitted++ })
	if got != emitted {
		t.Errorf("expected = %d, emitted = %d; estimate inconsistent with schedule", got, emitted)
	}
	// The untruncated upper bound is rounds x sites; jitter pushes the
	// last round past end, so the exact count is at most that and within
	// one round of it.
	upper := 2 * 4 * 10 * 10
	if got > upper || got < upper-2*10 {
		t.Errorf("expected = %d, want within one round below %d", got, upper)
	}
}

func TestForEachTransactionRange(t *testing.T) {
	topo := scaledTestTopology(7, 10)
	end := simnet.FromHours(3)
	const seed = 5
	var serial []Transaction
	ForEachTransaction(topo, seed, 0, end, func(tx *Transaction) { serial = append(serial, *tx) })
	for _, shards := range []int{1, 2, 3, 7} {
		var sharded []Transaction
		n := len(topo.Clients)
		for s := 0; s < shards; s++ {
			lo, hi := s*n/shards, (s+1)*n/shards
			ForEachTransactionRange(topo, seed, 0, end, lo, hi, func(tx *Transaction) {
				sharded = append(sharded, *tx)
			})
		}
		if len(sharded) != len(serial) {
			t.Fatalf("shards=%d: %d transactions, want %d", shards, len(sharded), len(serial))
		}
		for i := range serial {
			if sharded[i] != serial[i] {
				t.Fatalf("shards=%d: transaction %d = %+v, want %+v", shards, i, sharded[i], serial[i])
			}
		}
	}
}

func TestStartOffsetDelaysFirstRound(t *testing.T) {
	mk := func(offset time.Duration) *Topology {
		return NewRosterTopology([]Client{
			{Name: "c0", Category: PL, Site: "s0", Region: "us-east",
				RoundsPerHour: 4, StartOffset: offset},
		}, []Website{
			{Host: "www.w0.example", Group: USMisc, Region: "us-east", Replicas: 1, IndexSize: 10240},
		})
	}
	end := simnet.FromHours(2)
	collect := func(topo *Topology) []simnet.Time {
		var out []simnet.Time
		ForEachTransaction(topo, 3, 0, end, func(tx *Transaction) { out = append(out, tx.At) })
		return out
	}
	base := collect(mk(0))
	delayed := collect(mk(time.Hour))
	if len(base) == 0 || len(delayed) == 0 {
		t.Fatalf("no transactions: base=%d delayed=%d", len(base), len(delayed))
	}
	if delayed[0] < simnet.FromHours(1) {
		t.Errorf("first delayed txn at %v, want >= 1h", delayed[0])
	}
	// The delayed client runs the same per-round schedule, shifted: its
	// transaction count matches the tail of the undelayed window.
	if len(delayed) >= len(base) {
		t.Errorf("delayed client emitted %d txns, undelayed %d; offset not applied", len(delayed), len(base))
	}
	// Zero offset is the byte-identical legacy schedule (the base
	// collection already proves it runs from t=0).
	if base[0] >= simnet.FromHours(1) {
		t.Errorf("zero-offset first txn at %v, want < 1h", base[0])
	}
}

func TestScenarioBuildPlumbing(t *testing.T) {
	cs, ws := testRoster()
	topo := NewRosterTopology(cs, ws)
	p := testParams(1, 0, simnet.FromHours(744))
	p.Specials = []SpecialServer{
		{Host: "www.single.example", ChronicCover: 0.9, ChronicSeverity: [2]float64{0.1, 0.2}, ChronicKind: faults.ServerOutage},
		{Host: "www.multi.example", ReplicaFlakyFraction: 0.05},
	}
	p.ChronicSites = []ChronicEntity{{Name: "alpha.edu", Cover: 0.4, Severity: [2]float64{0.1, 0.3}}}
	p.ChronicClients = []ChronicEntity{{Name: "bb1.example.net", Cover: 0.3, Severity: [2]float64{0.1, 0.3}}}
	p.PinnedBGP = []PinnedBGPEvent{{ClientSubstr: "beta.edu", AtUnix: simnet.Epoch + 3600, Duration: 45 * time.Minute, Severity: 1.0}}
	p.Permanent = []PermanentPairSpec{
		{Site: "alpha.edu", Host: "www.cdn.example", Mode: BlockNoConn},
		{Site: "no-such-site", Host: "www.cdn.example", Mode: BlockNoConn},
		{Site: "alpha.edu", Host: "www.no-such.example", Mode: BlockNoConn},
	}
	sc := BuildScenario(topo, p)
	if sc.Timeline.Len() == 0 {
		t.Fatal("empty timeline")
	}
	// Permanent pairs: only the resolvable pair lands, expanded to the
	// site's two clients.
	if got := sc.PermanentClientPairs(topo); len(got) != 2 {
		t.Fatalf("permanent client pairs = %v, want 2", got)
	}
	// Pinned BGP event placed on the named client's prefix at its instant.
	beta := topo.ClientByName("pl1.beta.edu")
	foundPinned := false
	for _, ep := range sc.Timeline.Episodes(faults.Entity("prefix:" + beta.Prefix.String())) {
		if ep.Kind == faults.BGPInstability && ep.Start == simnet.FromUnix(simnet.Epoch+3600) {
			foundPinned = true
		}
	}
	if !foundPinned {
		t.Error("pinned BGP event not placed")
	}
	// Specials and chronic entities produce episodes.
	if len(sc.Timeline.Episodes("www:www.single.example")) == 0 {
		t.Error("special-server chronic episodes missing")
	}
	if len(sc.Timeline.Episodes("site:alpha.edu")) == 0 {
		t.Error("chronic site episodes missing")
	}
	if len(sc.Timeline.Episodes("client:bb1.example.net")) == 0 {
		t.Error("chronic client episodes missing")
	}
	// Chronic coverage: www.single.example under its episode most hours.
	id := sc.Timeline.Lookup("www:www.single.example")
	var buf []faults.Episode
	covered := 0
	for h := int64(0); h < 744; h++ {
		at := simnet.FromHours(h).Add(30 * time.Minute)
		buf = sc.Timeline.ActiveAnyIntoID(id, at, buf[:0])
		for _, ep := range buf {
			if ep.Kind == faults.ServerOutage {
				covered++
				break
			}
		}
	}
	if covered < 550 {
		t.Errorf("chronic coverage = %d/744 hours, want > 550 (~90%%)", covered)
	}
}

func TestPairEntity(t *testing.T) {
	if pairEntity("nwu.edu", "www.mp3.com") != "pair:nwu.edu|www.mp3.com" {
		t.Error("pair entity format")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	cs, ws := testRoster()
	topo := NewRosterTopology(cs, ws)
	build := func() int {
		sc := BuildScenario(topo, testParams(9, 0, simnet.FromHours(200)))
		return sc.Timeline.Len()
	}
	if build() != build() {
		t.Error("scenario not deterministic")
	}
}

func TestDialupScheduleBursts(t *testing.T) {
	// DU virtual clients download all URLs "at a stretch" (3 s spacing);
	// PL clients pace evenly through the round.
	var ws []Website
	for j := 0; j < 80; j++ {
		ws = append(ws, Website{Host: fmt.Sprintf("www.w%02d.example", j),
			Group: USMisc, Region: "us-east", Replicas: 1, IndexSize: 10240})
	}
	cs := []Client{
		{Name: "pl1.alpha.edu", Category: PL, Site: "alpha.edu", Region: "us-east", RoundsPerHour: 4},
		{Name: "dialup.sea.i.example.net", Category: DU, Site: "pop.sea.i", Region: "us-west", RoundsPerHour: 0.25},
	}
	topo := NewRosterTopology(cs, ws)
	duIdx, plIdx := 1, 0
	var duTimes, plTimes []simnet.Time
	ForEachTransaction(topo, 3, 0, simnet.FromHours(8), func(tx *Transaction) {
		switch tx.ClientIdx {
		case duIdx:
			duTimes = append(duTimes, tx.At)
		case plIdx:
			plTimes = append(plTimes, tx.At)
		}
	})
	if len(duTimes) < 80 || len(plTimes) < 80 {
		t.Fatalf("du=%d pl=%d transactions", len(duTimes), len(plTimes))
	}
	// DU: consecutive gaps within a round are exactly 3 s.
	gap := duTimes[1].Sub(duTimes[0])
	if gap != 3*time.Second {
		t.Errorf("DU spacing = %v, want 3s", gap)
	}
	// PL: spacing spreads the round (~900s/80 ≈ 10s).
	plGap := plTimes[1].Sub(plTimes[0])
	if plGap < 8*time.Second || plGap > 13*time.Second {
		t.Errorf("PL spacing = %v, want ~10s", plGap)
	}
	// DU round cadence: first txn of consecutive rounds ~4 h apart.
	roundGap := duTimes[80].Sub(duTimes[0])
	if roundGap < 3*time.Hour+30*time.Minute || roundGap > 4*time.Hour+30*time.Minute {
		t.Errorf("DU round gap = %v, want ~4h", roundGap)
	}
}
