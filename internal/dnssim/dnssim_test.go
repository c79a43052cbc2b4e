package dnssim

import (
	"net/netip"
	"testing"
	"time"

	"webfail/internal/dnswire"
	"webfail/internal/simnet"
)

// fixture wires a miniature DNS hierarchy:
//
//	root (1.0.0.1) delegates com -> TLD (1.0.0.2)
//	TLD delegates example.com -> auth (1.0.0.3)
//	auth serves www.example.com A 5.5.5.5 / 5.5.5.6 and a CNAME alias
//	LDNS at 2.0.0.1, client at 3.0.0.1
type fixture struct {
	net    *simnet.Network
	root   *AuthServer
	tld    *AuthServer
	auth   *AuthServer
	ldns   *LDNS
	stub   *StubResolver
	dig    *Dig
	client *simnet.Host
}

var (
	rootAddr   = netip.MustParseAddr("1.0.0.1")
	tldAddr    = netip.MustParseAddr("1.0.0.2")
	authAddr   = netip.MustParseAddr("1.0.0.3")
	ldnsAddr   = netip.MustParseAddr("2.0.0.1")
	clientAddr = netip.MustParseAddr("3.0.0.1")
	wwwAddr1   = netip.MustParseAddr("5.5.5.5")
	wwwAddr2   = netip.MustParseAddr("5.5.5.6")
)

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := simnet.NewNetwork(1)

	rootHost := n.AddHost("root", rootAddr)
	rootZone := NewZone("")
	rootZone.Delegate("com", map[string]netip.Addr{"a.gtld.net": tldAddr})
	root := NewAuthServer(rootHost, rootZone)

	tldHost := n.AddHost("tld", tldAddr)
	tldZone := NewZone("com")
	tldZone.Delegate("example.com", map[string]netip.Addr{"ns1.example.com": authAddr})
	tld := NewAuthServer(tldHost, tldZone)

	authHost := n.AddHost("auth", authAddr)
	authZone := NewZone("example.com")
	authZone.AddA("www.example.com", wwwAddr1, 60)
	authZone.AddA("www.example.com", wwwAddr2, 60)
	authZone.AddCNAME("alias.example.com", "www.example.com", 60)
	auth := NewAuthServer(authHost, authZone)

	ldnsHost := n.AddHost("ldns", ldnsAddr)
	ldns := NewLDNS(ldnsHost, []netip.Addr{rootAddr})

	client := n.AddHost("client", clientAddr)
	stub := NewStubResolver(client, ldnsAddr)
	dig := NewDig(client, ldnsAddr, []netip.Addr{rootAddr})

	return &fixture{net: n, root: root, tld: tld, auth: auth, ldns: ldns, stub: stub, dig: dig, client: client}
}

func (f *fixture) lookup(t *testing.T, name string) Result {
	t.Helper()
	var got *Result
	f.stub.LookupA(name, func(r Result) { got = &r })
	f.net.Sched.Run()
	if got == nil {
		t.Fatal("lookup never completed")
	}
	return *got
}

func (f *fixture) trace(t *testing.T, name string) *DigReport {
	t.Helper()
	var rep *DigReport
	f.dig.Trace(name, func(r *DigReport) { rep = r })
	f.net.Sched.Run()
	if rep == nil {
		t.Fatal("trace never completed")
	}
	return rep
}

func TestLookupSuccess(t *testing.T) {
	f := newFixture(t)
	r := f.lookup(t, "www.example.com")
	if r.Kind != ResultOK {
		t.Fatalf("kind = %v, want ok", r.Kind)
	}
	// Answers rotate round-robin; both replicas must be present.
	if len(r.Addrs) != 2 || (r.Addrs[0] != wwwAddr1 && r.Addrs[0] != wwwAddr2) ||
		r.Addrs[0] == r.Addrs[1] {
		t.Errorf("addrs = %v", r.Addrs)
	}
	if r.RTT <= 0 || r.RTT > time.Second {
		t.Errorf("RTT = %v, want sub-second for full recursion", r.RTT)
	}
}

func TestLookupCNAME(t *testing.T) {
	f := newFixture(t)
	r := f.lookup(t, "alias.example.com")
	if r.Kind != ResultOK || len(r.Addrs) != 2 {
		t.Fatalf("CNAME lookup = %+v", r)
	}
}

func TestLookupNXDomain(t *testing.T) {
	f := newFixture(t)
	r := f.lookup(t, "nonexistent.example.com")
	if r.Kind != ResultError || r.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("got %+v, want NXDOMAIN error", r)
	}
}

func TestLookupCacheHit(t *testing.T) {
	f := newFixture(t)
	r1 := f.lookup(t, "www.example.com")
	recursionsAfterFirst := f.ldns.Recursions
	r2 := f.lookup(t, "www.example.com")
	if f.ldns.Recursions != recursionsAfterFirst {
		t.Error("second lookup re-recursed despite warm cache")
	}
	if f.ldns.Hits != 1 {
		t.Errorf("hits = %d, want 1", f.ldns.Hits)
	}
	if r2.Kind != ResultOK || len(r2.Addrs) != len(r1.Addrs) {
		t.Errorf("cached result = %+v", r2)
	}
	if r2.RTT >= r1.RTT {
		t.Errorf("cached RTT %v not faster than cold %v", r2.RTT, r1.RTT)
	}
}

func TestFlushCache(t *testing.T) {
	f := newFixture(t)
	f.lookup(t, "www.example.com")
	f.ldns.FlushCache()
	f.lookup(t, "www.example.com")
	if f.ldns.Recursions != 2 {
		t.Errorf("recursions = %d, want 2 after flush", f.ldns.Recursions)
	}
}

func TestLDNSDownIsStubTimeout(t *testing.T) {
	f := newFixture(t)
	f.ldns.Status = func(simnet.Time) Status { return StatusDown }
	r := f.lookup(t, "www.example.com")
	if r.Kind != ResultTimeout {
		t.Fatalf("kind = %v, want timeout", r.Kind)
	}
	// Total elapsed equals the full retry schedule.
	want := 11 * time.Second
	if r.RTT != want {
		t.Errorf("RTT = %v, want %v", r.RTT, want)
	}
}

func TestAuthDownIsStubTimeoutButLDNSResponsive(t *testing.T) {
	f := newFixture(t)
	f.auth.Status = func(simnet.Time) Status { return StatusDown }
	r := f.lookup(t, "www.example.com")
	if r.Kind != ResultTimeout {
		t.Fatalf("kind = %v, want timeout (stub gives up before LDNS)", r.Kind)
	}
	rep := f.trace(t, "www.example.com")
	if !rep.LDNSResponsive {
		t.Error("LDNS should be responsive")
	}
	if got := rep.Classify(); got != ClassNonLDNSTimeout {
		t.Errorf("classify = %v, want non-ldns-timeout", got)
	}
}

func TestDigClassifyLDNSTimeout(t *testing.T) {
	f := newFixture(t)
	f.ldns.Status = func(simnet.Time) Status { return StatusDown }
	// With the LDNS down but the hierarchy up, dig still completes the
	// iterative walk — but the failure classifies as LDNS timeout
	// because the direct probe went unanswered and that is what broke
	// the client's lookup.
	rep := f.trace(t, "www.example.com")
	if rep.LDNSResponsive {
		t.Error("LDNS probe should time out")
	}
	if got := rep.Classify(); got != ClassLDNSTimeout {
		t.Errorf("classify = %v, want ldns-timeout", got)
	}
}

func TestDigClassifySuccess(t *testing.T) {
	f := newFixture(t)
	rep := f.trace(t, "www.example.com")
	if got := rep.Classify(); got != ClassSuccess {
		t.Errorf("classify = %v, want success", got)
	}
	if len(rep.Steps) < 3 {
		t.Errorf("expected >=3 hierarchy steps, got %d: %+v", len(rep.Steps), rep.Steps)
	}
}

func TestDigClassifyErrorResponse(t *testing.T) {
	f := newFixture(t)
	f.auth.Status = func(simnet.Time) Status { return StatusNXDomain }
	r := f.lookup(t, "www.example.com")
	if r.Kind != ResultError || r.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("lookup = %+v, want NXDOMAIN", r)
	}
	rep := f.trace(t, "www.example.com")
	if got := rep.Classify(); got != ClassErrorResponse {
		t.Errorf("classify = %v, want error-response", got)
	}
}

func TestServFail(t *testing.T) {
	f := newFixture(t)
	f.auth.Status = func(simnet.Time) Status { return StatusServFail }
	r := f.lookup(t, "www.example.com")
	if r.Kind != ResultError || r.RCode != dnswire.RCodeServFail {
		t.Fatalf("lookup = %+v, want SERVFAIL", r)
	}
}

func TestAuthRecoversMidExperiment(t *testing.T) {
	f := newFixture(t)
	cutoff := simnet.Time(30 * time.Second)
	f.auth.Status = func(now simnet.Time) Status {
		if now < cutoff {
			return StatusDown
		}
		return StatusUp
	}
	r := f.lookup(t, "www.example.com")
	if r.Kind != ResultTimeout {
		t.Fatalf("first lookup = %v, want timeout", r.Kind)
	}
	// Advance past recovery, then look up again.
	f.net.Sched.RunUntil(simnet.Time(40 * time.Second))
	f.ldns.FlushCache()
	var got *Result
	f.stub.LookupA("www.example.com", func(r Result) { got = &r })
	f.net.Sched.Run()
	if got == nil || got.Kind != ResultOK {
		t.Fatalf("post-recovery lookup = %+v, want ok", got)
	}
}

func TestTLDServerSharedByZones(t *testing.T) {
	// One server can serve multiple zones; the most specific apex wins.
	n := simnet.NewNetwork(2)
	srvHost := n.AddHost("multi", rootAddr)
	rootZone := NewZone("")
	rootZone.Delegate("com", map[string]netip.Addr{"ns.com": rootAddr})
	comZone := NewZone("com")
	comZone.AddA("direct.com", wwwAddr1, 60)
	NewAuthServer(srvHost, rootZone, comZone)

	ldnsHost := n.AddHost("ldns", ldnsAddr)
	ldns := NewLDNS(ldnsHost, []netip.Addr{rootAddr})
	_ = ldns
	client := n.AddHost("client", clientAddr)
	stub := NewStubResolver(client, ldnsAddr)

	var got *Result
	stub.LookupA("direct.com", func(r Result) { got = &r })
	n.Sched.Run()
	if got == nil || got.Kind != ResultOK || got.Addrs[0] != wwwAddr1 {
		t.Fatalf("multi-zone lookup = %+v", got)
	}
}

func TestUnknownTLD(t *testing.T) {
	f := newFixture(t)
	r := f.lookup(t, "www.example.zz")
	// Root has no delegation for .zz: authoritative NXDOMAIN.
	if r.Kind != ResultError || r.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("lookup = %+v, want NXDOMAIN", r)
	}
}

func TestStubRetriesThroughTransientLoss(t *testing.T) {
	f := newFixture(t)
	// Drop everything for the first 2 seconds; the stub's retry at 3 s
	// should then succeed.
	f.net.SetPathFunc(func(src, dst *simnet.Host, now simnet.Time) simnet.PathState {
		if now < simnet.Time(2*time.Second) {
			return simnet.PathState{Latency: time.Millisecond, Down: true}
		}
		return simnet.PathState{Latency: time.Millisecond}
	})
	r := f.lookup(t, "www.example.com")
	if r.Kind != ResultOK {
		t.Fatalf("lookup = %+v, want ok after retry", r)
	}
	if r.RTT < 3*time.Second {
		t.Errorf("RTT = %v, expected to include a retry delay", r.RTT)
	}
}

func TestZoneMatchDelegation(t *testing.T) {
	z := NewZone("com")
	z.Delegate("example.com", map[string]netip.Addr{"ns1": authAddr})
	z.Delegate("deep.example.com", map[string]netip.Addr{"ns2": tldAddr})
	if apex, _, ok := z.matchDelegation("www.deep.example.com"); !ok || apex != "deep.example.com" {
		t.Errorf("matchDelegation deep = %q, %v", apex, ok)
	}
	if apex, _, ok := z.matchDelegation("www.example.com"); !ok || apex != "example.com" {
		t.Errorf("matchDelegation = %q, %v", apex, ok)
	}
	if _, _, ok := z.matchDelegation("other.org"); ok {
		t.Error("matchDelegation matched foreign name")
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusUp.String() != "up" || StatusDown.String() != "down" {
		t.Error("status strings")
	}
	if ClassLDNSTimeout.String() != "ldns-timeout" || ClassNonLDNSTimeout.String() != "non-ldns-timeout" {
		t.Error("class strings")
	}
	if ResultTimeout.String() != "timeout" {
		t.Error("result strings")
	}
}

func TestLDNSCacheExpiry(t *testing.T) {
	f := newFixture(t)
	f.lookup(t, "www.example.com")
	if f.ldns.Recursions != 1 {
		t.Fatalf("recursions = %d", f.ldns.Recursions)
	}
	// Within the 60 s cache TTL: served from cache.
	f.net.Sched.RunUntil(simnet.Time(30 * time.Second))
	f.lookup(t, "www.example.com")
	if f.ldns.Recursions != 1 {
		t.Errorf("recursed within TTL (recursions = %d)", f.ldns.Recursions)
	}
	// Past the TTL: a fresh recursion.
	f.net.Sched.RunUntil(simnet.Time(2 * time.Minute))
	f.lookup(t, "www.example.com")
	if f.ldns.Recursions != 2 {
		t.Errorf("no recursion after TTL expiry (recursions = %d)", f.ldns.Recursions)
	}
}

func TestConcurrentLookupsSameName(t *testing.T) {
	// Two clients of the same LDNS query the same cold name at once;
	// both must get answers.
	f := newFixture(t)
	other := f.net.AddHost("client2", netip.MustParseAddr("3.0.0.2"))
	stub2 := NewStubResolver(other, ldnsAddr)
	var r1, r2 *Result
	f.stub.LookupA("www.example.com", func(r Result) { r1 = &r })
	stub2.LookupA("www.example.com", func(r Result) { r2 = &r })
	f.net.Sched.Run()
	if r1 == nil || r1.Kind != ResultOK {
		t.Errorf("client1 = %+v", r1)
	}
	if r2 == nil || r2.Kind != ResultOK {
		t.Errorf("client2 = %+v", r2)
	}
}

func TestProbeNameAnsweredWhileRecursionImpossible(t *testing.T) {
	// Even with the whole upstream hierarchy dead, the LDNS answers the
	// responsiveness probe from its hints — the property the dig
	// classifier depends on.
	f := newFixture(t)
	dead := func(simnet.Time) Status { return StatusDown }
	f.root.Status = dead
	f.tld.Status = dead
	f.auth.Status = dead
	var got *Result
	f.stub.LookupA(ProbeName, func(r Result) { got = &r })
	f.net.Sched.Run()
	if got == nil || got.Kind != ResultOK || len(got.Addrs) == 0 {
		t.Fatalf("probe = %+v", got)
	}
}

func TestCNAMEAcrossZones(t *testing.T) {
	// alias.example.com -> www.other.org: the CNAME target lives in a
	// different zone on a different server, forcing the resolver to
	// restart from the roots.
	n := simnet.NewNetwork(9)
	rootHost := n.AddHost("root", rootAddr)
	rootZone := NewZone("")
	rootZone.Delegate("example.com", map[string]netip.Addr{"ns1": tldAddr})
	rootZone.Delegate("other.org", map[string]netip.Addr{"ns2": authAddr})
	NewAuthServer(rootHost, rootZone)

	comHost := n.AddHost("com-auth", tldAddr)
	comZone := NewZone("example.com")
	comZone.AddCNAME("alias.example.com", "www.other.org", 60)
	NewAuthServer(comHost, comZone)

	orgHost := n.AddHost("org-auth", authAddr)
	orgZone := NewZone("other.org")
	orgZone.AddA("www.other.org", wwwAddr1, 60)
	NewAuthServer(orgHost, orgZone)

	ldnsHost := n.AddHost("ldns", ldnsAddr)
	NewLDNS(ldnsHost, []netip.Addr{rootAddr})
	client := n.AddHost("client", clientAddr)
	stub := NewStubResolver(client, ldnsAddr)

	var got *Result
	stub.LookupA("alias.example.com", func(r Result) { got = &r })
	n.Sched.Run()
	if got == nil || got.Kind != ResultOK || len(got.Addrs) != 1 || got.Addrs[0] != wwwAddr1 {
		t.Fatalf("cross-zone CNAME lookup = %+v", got)
	}
}

// TestLDNSInterleavedRecursions sends two stubs' lookups for different
// names through one LDNS at the same instant, so the second query
// arrives while the first recursion is in flight. Each stub must get back
// an answer carrying its own query ID and name: the LDNS keeps what it
// needs of each query in pooled state, never in the decode scratch that
// the next query overwrites.
func TestLDNSInterleavedRecursions(t *testing.T) {
	f := newFixture(t)
	mailAddr := netip.MustParseAddr("5.5.5.9")
	f.auth.zones[0].AddA("mail.example.com", mailAddr, 60)
	other := f.net.AddHost("client2", netip.MustParseAddr("3.0.0.2"))
	stub2 := NewStubResolver(other, ldnsAddr)
	stub2.exch.nextID = 100 // the two stubs' query IDs differ

	type exchange struct{ queries, answers []dnswire.Message }
	capture := func(h *simnet.Host, ex *exchange) {
		h.SetCapture(func(_ simnet.Time, dir simnet.Direction, pkt *simnet.Packet) {
			body, _, ok := udpPayload(pkt)
			if !ok {
				return
			}
			m, err := dnswire.Decode(body)
			if err != nil {
				t.Errorf("%s: undecodable DNS packet: %v", h.Name, err)
				return
			}
			if dir == simnet.Out {
				ex.queries = append(ex.queries, *m)
			} else {
				ex.answers = append(ex.answers, *m)
			}
		})
	}
	var ex1, ex2 exchange
	capture(f.client, &ex1)
	capture(other, &ex2)

	var r1, r2 *Result
	f.stub.LookupA("www.example.com", func(r Result) { r1 = &r })
	stub2.LookupA("mail.example.com", func(r Result) { r2 = &r })
	f.net.Sched.Run()

	if r1 == nil || r1.Kind != ResultOK || len(r1.Addrs) != 2 {
		t.Errorf("www lookup = %+v", r1)
	}
	if r2 == nil || r2.Kind != ResultOK || len(r2.Addrs) != 1 || r2.Addrs[0] != mailAddr {
		t.Errorf("mail lookup = %+v", r2)
	}
	for _, c := range []struct {
		name string
		ex   *exchange
		id   uint16
	}{{"www.example.com", &ex1, 1}, {"mail.example.com", &ex2, 101}} {
		if len(c.ex.queries) != 1 || len(c.ex.answers) != 1 {
			t.Errorf("%s: %d queries and %d answers, want one each", c.name, len(c.ex.queries), len(c.ex.answers))
			continue
		}
		q, a := c.ex.queries[0], c.ex.answers[0]
		if q.Header.ID != c.id || a.Header.ID != c.id {
			t.Errorf("%s: query ID %d, answer ID %d, want %d", c.name, q.Header.ID, a.Header.ID, c.id)
		}
		if len(a.Questions) != 1 || a.Questions[0].Name != c.name {
			t.Errorf("%s: answer echoes questions %+v", c.name, a.Questions)
		}
		for _, rr := range a.Answers {
			if rr.Name != c.name {
				t.Errorf("%s: answer holds a record for %q", c.name, rr.Name)
			}
		}
	}
}

// TestWalkLimits drives the hierarchy walk into each way it gives up
// without a definitive answer: a CNAME loop across two zones (stopped by
// the referral limit after five restarts from the roots), a CNAME loop
// the root server answers itself (stopped by the CNAME limit after nine
// restarts), a delegation back to the server that made it (stopped by
// the referral limit) and an NS record without glue (a lame referral).
// Through the stub the lookup times out after the whole retry schedule
// while the LDNS keeps re-walking; dig gives up after the same queries
// the LDNS made and blames a remote server.
func TestWalkLimits(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(f *fixture)
		query string
		steps int
	}{
		{"cname-loop", func(f *fixture) {
			other := NewZone("other.com")
			other.AddCNAME("loop.other.com", "loop.example.com", 60)
			f.auth.AddZone(other)
			f.auth.zones[0].AddCNAME("loop.example.com", "loop.other.com", 60)
			f.tld.zones[0].Delegate("other.com", map[string]netip.Addr{"ns1.other.com": authAddr})
		}, "loop.example.com", 17},
		{"root-cname-loop", func(f *fixture) {
			f.root.zones[0].AddCNAME("loop", "loop2", 60)
			f.root.zones[0].AddCNAME("loop2", "loop", 60)
		}, "loop", 9},
		{"delegation-loop", func(f *fixture) {
			f.tld.zones[0].Delegate("loop.com", map[string]netip.Addr{"ns.loop.com": tldAddr})
		}, "www.loop.com", 17},
		{"no-glue", func(f *fixture) {
			f.auth.zones[0].Children["sub.example.com"] = Delegation{NSNames: []string{"ns.elsewhere.org"}}
		}, "www.sub.example.com", 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t)
			c.setup(f)
			if r := f.lookup(t, c.query); r.Kind != ResultTimeout || r.RTT != 11*time.Second {
				t.Errorf("lookup = %+v, want a timeout after 11s", r)
			}
			rep := f.trace(t, c.query)
			if rep.Completed || len(rep.Steps) != c.steps {
				t.Errorf("dig completed %v after %d steps, want false after %d: %+v", rep.Completed, len(rep.Steps), c.steps, rep.Steps)
			}
			if got := rep.Classify(); got != ClassNonLDNSTimeout {
				t.Errorf("classify = %v, want non-ldns-timeout", got)
			}
		})
	}
}

// maxLookupAllocs bounds the heap allocations of one stub lookup that the
// LDNS recurses root → TLD → auth for: the answer slices the LDNS caches
// and the stub returns, and the stub's per-try closure. The walk itself,
// its referral buffer and its continuations are pooled with the LDNS's
// client-query state.
const maxLookupAllocs = 3

// TestLDNSRecursionAllocs is the allocation gate of the LDNS's recursion:
// with the cache flushed before every run, a stub lookup makes the LDNS
// walk the whole hierarchy.
func TestLDNSRecursionAllocs(t *testing.T) {
	f := newFixture(t)
	var got Result
	done := func(r Result) { got = r }
	lookup := func() {
		f.ldns.FlushCache()
		f.stub.LookupA("www.example.com", done)
		f.net.Sched.Run()
	}
	lookup()
	recursions := f.ldns.Recursions
	allocs := testing.AllocsPerRun(50, lookup)
	if got.Kind != ResultOK || f.ldns.Recursions-recursions != 51 {
		t.Fatalf("lookup = %+v after %d recursions, want ok after 51", got, f.ldns.Recursions-recursions)
	}
	t.Logf("%.1f allocations per lookup", allocs)
	if allocs > maxLookupAllocs {
		t.Errorf("a recursed lookup allocates %.1f times, want at most %d", allocs, maxLookupAllocs)
	}
}
