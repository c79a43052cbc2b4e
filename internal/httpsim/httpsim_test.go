package httpsim

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"webfail/internal/dnssim"
	"webfail/internal/simnet"
	"webfail/internal/tcpsim"
)

// world is a complete miniature web: DNS hierarchy, two web server
// replicas for www.example.com, one server for www.other.org, a proxy
// host, and a client.
type world struct {
	net *simnet.Network

	auth *dnssim.AuthServer
	ldns *dnssim.LDNS

	srv1, srv2, srvOther *Server
	stk1, stk2, stkOther *tcpsim.Stack

	client    *Client
	cliStack  *tcpsim.Stack
	proxy     *Proxy
	prxStack  *tcpsim.Stack
	prxClient *Client
}

var (
	wRoot    = netip.MustParseAddr("1.0.0.1")
	wAuth    = netip.MustParseAddr("1.0.0.3")
	wLDNS    = netip.MustParseAddr("2.0.0.1")
	wCli     = netip.MustParseAddr("3.0.0.1")
	wSrv1    = netip.MustParseAddr("5.5.5.1")
	wSrv2    = netip.MustParseAddr("5.5.5.2")
	wOther   = netip.MustParseAddr("6.6.6.1")
	wProxy   = netip.MustParseAddr("4.0.0.1")
	wPrxLDNS = netip.MustParseAddr("4.0.0.2")
)

func newWorld(t *testing.T, seed int64) *world {
	t.Helper()
	n := simnet.NewNetwork(seed)
	w := &world{net: n}

	// DNS: one root server serving the whole tree (root + zones), plus
	// delegation to an auth server for example.com and other.org.
	rootHost := n.AddHost("root", wRoot)
	rootZone := dnssim.NewZone("")
	rootZone.Delegate("com", map[string]netip.Addr{"ns": wAuth})
	rootZone.Delegate("org", map[string]netip.Addr{"ns": wAuth})
	dnssim.NewAuthServer(rootHost, rootZone)

	authHost := n.AddHost("auth", wAuth)
	comZone := dnssim.NewZone("com")
	comZone.AddA("www.example.com", wSrv1, 60)
	comZone.AddA("www.example.com", wSrv2, 60)
	comZone.AddCNAME("redirme.example.com", "www.example.com", 60)
	orgZone := dnssim.NewZone("org")
	orgZone.AddA("www.other.org", wOther, 60)
	w.auth = dnssim.NewAuthServer(authHost, comZone, orgZone)

	ldnsHost := n.AddHost("ldns", wLDNS)
	w.ldns = dnssim.NewLDNS(ldnsHost, []netip.Addr{wRoot})

	// Web servers.
	mk := func(name string, addr netip.Addr, hosts ...string) (*Server, *tcpsim.Stack) {
		h := n.AddHost(name, addr)
		stk := tcpsim.NewStack(h)
		srv := NewServer(stk)
		srv.Hosts = hosts
		return srv, stk
	}
	w.srv1, w.stk1 = mk("srv1", wSrv1, "www.example.com")
	w.srv2, w.stk2 = mk("srv2", wSrv2, "www.example.com")
	w.srvOther, w.stkOther = mk("other", wOther, "www.other.org")

	// Client.
	cliHost := n.AddHost("client", wCli)
	w.cliStack = tcpsim.NewStack(cliHost)
	w.client = NewClient(w.cliStack, dnssim.NewStubResolver(cliHost, wLDNS))

	// Proxy with its own LDNS.
	prxLDNSHost := n.AddHost("prxldns", wPrxLDNS)
	dnssim.NewLDNS(prxLDNSHost, []netip.Addr{wRoot})
	prxHost := n.AddHost("proxy", wProxy)
	w.prxStack = tcpsim.NewStack(prxHost)
	w.proxy = NewProxy(w.prxStack, dnssim.NewStubResolver(prxHost, wPrxLDNS))

	// A second client configured to use the proxy, sharing the client
	// host's stack (distinct ephemeral ports).
	w.prxClient = &Client{
		Stack:    w.cliStack,
		Resolver: dnssim.NewStubResolver(cliHost, wLDNS),
		Proxy:    netip.AddrPortFrom(wProxy, ProxyPort),
		NoCache:  true,
	}
	return w
}

func (w *world) fetch(t *testing.T, c *Client, url string) *FetchResult {
	t.Helper()
	var got *FetchResult
	c.Fetch(url, func(r *FetchResult) { got = r })
	w.net.Sched.Run()
	if got == nil {
		t.Fatal("fetch never completed")
	}
	return got
}

func TestFetchSuccess(t *testing.T) {
	w := newWorld(t, 1)
	r := w.fetch(t, w.client, "http://www.example.com/")
	if !r.OK || r.Stage != StageNone {
		t.Fatalf("result = %+v", r)
	}
	if r.StatusCode != 200 || r.Bytes != 10240 {
		t.Errorf("status=%d bytes=%d", r.StatusCode, r.Bytes)
	}
	if len(r.Attempts) != 1 || r.Attempts[0].Kind != ConnOK {
		t.Errorf("attempts = %+v", r.Attempts)
	}
	if !r.DNSAttempted || r.DNS.Kind != dnssim.ResultOK {
		t.Errorf("dns = %+v", r.DNS)
	}
	if r.ReplicaIP != wSrv1 && r.ReplicaIP != wSrv2 {
		t.Errorf("replica = %v", r.ReplicaIP)
	}
	if r.Elapsed <= 0 || r.Elapsed > 5*time.Second {
		t.Errorf("elapsed = %v", r.Elapsed)
	}
}

func TestFetchDNSFailure(t *testing.T) {
	w := newWorld(t, 2)
	w.ldns.Status = func(simnet.Time) dnssim.Status { return dnssim.StatusDown }
	r := w.fetch(t, w.client, "http://www.example.com/")
	if r.OK || r.Stage != StageDNS {
		t.Fatalf("result = %+v", r)
	}
	if r.DNS.Kind != dnssim.ResultTimeout {
		t.Errorf("dns kind = %v", r.DNS.Kind)
	}
	if len(r.Attempts) != 0 {
		t.Errorf("TCP attempted despite DNS failure: %+v", r.Attempts)
	}
}

func TestFetchNoConnectionAllReplicasDown(t *testing.T) {
	w := newWorld(t, 3)
	down := func(simnet.Time) tcpsim.HostStatus { return tcpsim.HostDown }
	w.stk1.Status = down
	w.stk2.Status = down
	r := w.fetch(t, w.client, "http://www.example.com/")
	if r.OK || r.Stage != StageTCP || r.FailKind != NoConnection {
		t.Fatalf("result stage=%v kind=%v", r.Stage, r.FailKind)
	}
	// 2 addresses x 2 tries = 4 connection attempts.
	if len(r.Attempts) != 4 {
		t.Errorf("attempts = %d, want 4", len(r.Attempts))
	}
}

func TestFetchFailsOverToSecondReplica(t *testing.T) {
	// Rotated DNS answers mean srv1 may come first or second; fetch
	// twice so one of the fetches starts at the dead replica and must
	// fail over.
	w := newWorld(t, 4)
	w.stk1.Status = func(simnet.Time) tcpsim.HostStatus { return tcpsim.HostDown }
	sawFailover := false
	for i := 0; i < 2; i++ {
		w.ldns.FlushCache()
		r := w.fetch(t, w.client, "http://www.example.com/")
		if !r.OK {
			t.Fatalf("fetch %d = %+v", i, r)
		}
		if r.ReplicaIP != wSrv2 {
			t.Errorf("fetch %d replica = %v, want srv2", i, r.ReplicaIP)
		}
		if len(r.Attempts) == 2 && r.Attempts[0].Kind == NoConnection && r.Attempts[1].Kind == ConnOK {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Error("no fetch exercised failover despite a dead first replica")
	}
}

func TestFetchNoResponse(t *testing.T) {
	w := newWorld(t, 5)
	hung := func(simnet.Time) AppStatus { return AppStatus{Mode: AppHung} }
	w.srv1.Status = hung
	w.srv2.Status = hung
	w.client.IdleTimeout = 5 * time.Second // shorten for the test
	r := w.fetch(t, w.client, "http://www.example.com/")
	if r.OK || r.Stage != StageTCP || r.FailKind != NoResponse {
		t.Fatalf("stage=%v kind=%v", r.Stage, r.FailKind)
	}
	if r.Bytes != 0 {
		t.Errorf("bytes = %d", r.Bytes)
	}
}

func TestFetchPartialResponseStall(t *testing.T) {
	w := newWorld(t, 6)
	stall := func(simnet.Time) AppStatus { return AppStatus{Mode: AppStall} }
	w.srv1.Status = stall
	w.srv2.Status = stall
	w.client.IdleTimeout = 5 * time.Second
	r := w.fetch(t, w.client, "http://www.example.com/")
	if r.OK || r.FailKind != PartialResponse {
		t.Fatalf("kind = %v", r.FailKind)
	}
	if r.Bytes == 0 {
		t.Error("expected partial body bytes")
	}
}

func TestFetchPartialResponseAbort(t *testing.T) {
	w := newWorld(t, 7)
	abrt := func(simnet.Time) AppStatus { return AppStatus{Mode: AppAbort} }
	w.srv1.Status = abrt
	w.srv2.Status = abrt
	r := w.fetch(t, w.client, "http://www.example.com/")
	if r.OK || r.FailKind != PartialResponse {
		t.Fatalf("kind = %v, attempts = %+v", r.FailKind, r.Attempts)
	}
}

func TestFetchHTTPError(t *testing.T) {
	w := newWorld(t, 8)
	errf := func(simnet.Time) AppStatus { return AppStatus{Mode: AppError, Code: 503} }
	w.srv1.Status = errf
	w.srv2.Status = errf // DNS answers rotate; both replicas must err
	r := w.fetch(t, w.client, "http://www.example.com/")
	if r.OK || r.Stage != StageHTTP || r.StatusCode != 503 {
		t.Fatalf("stage=%v code=%d", r.Stage, r.StatusCode)
	}
}

func TestFetch404(t *testing.T) {
	w := newWorld(t, 9)
	r := w.fetch(t, w.client, "http://www.example.com/missing.html")
	if r.OK || r.Stage != StageHTTP || r.StatusCode != 404 {
		t.Fatalf("stage=%v code=%d", r.Stage, r.StatusCode)
	}
}

func TestFetchRedirect(t *testing.T) {
	w := newWorld(t, 10)
	w.srvOther.AddPage(Page{Path: "/", RedirectTo: "http://www.example.com/"})
	r := w.fetch(t, w.client, "http://www.other.org/")
	if !r.OK || r.Redirects != 1 {
		t.Fatalf("ok=%v redirects=%d", r.OK, r.Redirects)
	}
	// Connections: one to other.org, one to example.com.
	if len(r.Attempts) != 2 {
		t.Errorf("attempts = %+v", r.Attempts)
	}
	if r.ReplicaIP != wSrv1 && r.ReplicaIP != wSrv2 {
		t.Errorf("final replica = %v, want an example.com replica", r.ReplicaIP)
	}
}

func TestFetchRedirectLoopBounded(t *testing.T) {
	w := newWorld(t, 11)
	w.srv1.AddPage(Page{Path: "/", RedirectTo: "http://www.other.org/"})
	w.srv2.AddPage(Page{Path: "/", RedirectTo: "http://www.other.org/"})
	w.srvOther.AddPage(Page{Path: "/", RedirectTo: "http://www.example.com/"})
	r := w.fetch(t, w.client, "http://www.example.com/")
	if r.OK {
		t.Fatal("redirect loop reported success")
	}
	if r.Stage != StageHTTP {
		t.Errorf("stage = %v", r.Stage)
	}
}

func TestFetchRetrySucceedsAfterTransientOutage(t *testing.T) {
	w := newWorld(t, 12)
	// Both replicas down until t=25s; first try (2 addrs x 21s... )
	// Actually the first address fails at 21s, second at 42s; to keep
	// the test fast use a path outage that ends at 2s so the first
	// SYN retransmission (3s) succeeds.
	srv1 := w.net.Host(wSrv1)
	w.net.SetPathFunc(func(src, dst *simnet.Host, now simnet.Time) simnet.PathState {
		if (dst == srv1 || src == srv1) && now < simnet.Time(2*time.Second) {
			return simnet.PathState{Latency: 5 * time.Millisecond, Down: true}
		}
		return simnet.PathState{Latency: 5 * time.Millisecond}
	})
	r := w.fetch(t, w.client, "http://www.example.com/")
	if !r.OK {
		t.Fatalf("result = %+v", r)
	}
}

func TestProxyFetchSuccess(t *testing.T) {
	w := newWorld(t, 13)
	r := w.fetch(t, w.prxClient, "http://www.example.com/")
	if !r.OK || r.StatusCode != 200 || r.Bytes != 10240 {
		t.Fatalf("result = %+v", r)
	}
	if r.DNSAttempted {
		t.Error("proxied fetch should not resolve at the client")
	}
	if r.ReplicaIP != wProxy {
		t.Errorf("replica = %v, want proxy addr", r.ReplicaIP)
	}
	if w.proxy.Relayed != 1 {
		t.Errorf("proxy relayed = %d", w.proxy.Relayed)
	}
}

func TestProxyNoFailover(t *testing.T) {
	// The replica every resolver's first lookup leads with (srv2 — the
	// auth server rotates multi-A answers per query source, and a fresh
	// source's first answer starts at offset 1) is down: a direct client
	// fails over and succeeds; the proxied client gets a 504 — the
	// Section 4.7 signature.
	w := newWorld(t, 14)
	w.stk2.Status = func(simnet.Time) tcpsim.HostStatus { return tcpsim.HostDown }

	direct := w.fetch(t, w.client, "http://www.example.com/")
	if !direct.OK {
		t.Fatalf("direct fetch should fail over: %+v", direct)
	}

	proxied := w.fetch(t, w.prxClient, "http://www.example.com/")
	if proxied.OK {
		t.Fatal("proxied fetch should fail without failover")
	}
	if proxied.Stage != StageHTTP || proxied.StatusCode != 504 {
		t.Errorf("stage=%v code=%d, want HTTP 504", proxied.Stage, proxied.StatusCode)
	}
}

func TestProxyFailoverAblation(t *testing.T) {
	// Same dead-first-replica world as TestProxyNoFailover, but with
	// failover enabled the proxy recovers.
	w := newWorld(t, 15)
	w.stk2.Status = func(simnet.Time) tcpsim.HostStatus { return tcpsim.HostDown }
	w.proxy.Failover = true
	r := w.fetch(t, w.prxClient, "http://www.example.com/")
	if !r.OK {
		t.Fatalf("failover-enabled proxy should succeed: %+v", r)
	}
}

func TestProxyMasksDNSFailure(t *testing.T) {
	w := newWorld(t, 16)
	// Warm the proxy's DNS cache.
	r := w.fetch(t, w.prxClient, "http://www.example.com/")
	if !r.OK {
		t.Fatal("warmup failed")
	}
	// Kill DNS: direct client fails at DNS, proxied client still works
	// off the proxy cache.
	w.ldns.Status = func(simnet.Time) dnssim.Status { return dnssim.StatusDown }
	// (The proxy uses its own LDNS; kill the hierarchy instead.)
	w.auth.Status = func(simnet.Time) dnssim.Status { return dnssim.StatusDown }

	w.ldns.FlushCache()
	direct := w.fetch(t, w.client, "http://www.example.com/")
	if direct.OK || direct.Stage != StageDNS {
		t.Fatalf("direct = %+v, want DNS failure", direct)
	}
	proxied := w.fetch(t, w.prxClient, "http://www.example.com/")
	if !proxied.OK {
		t.Fatalf("proxied fetch should be masked by proxy DNS cache: %+v", proxied)
	}
}

func TestProxyGatewayErrorOnDNSFailure(t *testing.T) {
	w := newWorld(t, 17)
	w.auth.Status = func(simnet.Time) dnssim.Status { return dnssim.StatusDown }
	r := w.fetch(t, w.prxClient, "http://www.example.com/")
	if r.OK || r.StatusCode != 502 {
		t.Fatalf("result = %+v, want 502", r)
	}
}

// rawExchange opens a connection from the client host to dst, sends
// each part one simulated second after the previous one (so a head
// spans several segments), closes the connection if closeEarly is set,
// and returns every byte that came back.
func rawExchange(w *world, dst netip.AddrPort, closeEarly bool, parts ...string) string {
	var got []byte
	c := w.cliStack.Dial(dst, tcpsim.Callbacks{OnData: func(d []byte) { got = append(got, d...) }})
	for _, part := range parts {
		c.Send([]byte(part))
		w.net.Sched.RunUntil(w.net.Sched.Now().Add(time.Second))
	}
	if closeEarly {
		c.Close()
	}
	w.net.Sched.Run()
	return string(got)
}

// TestRequestReaderReuse drives the server's and the proxy's pooled
// request readers through a malformed head (answered 400 by the
// endpoint's own error writer), a head split across segments, and a
// connection that closes before its head is complete; each endpoint
// then serves a last request with the one reader it pooled.
func TestRequestReaderReuse(t *testing.T) {
	w := newWorld(t, 21)
	for _, ep := range []struct {
		name    string
		dst     netip.AddrPort
		target  string
		readers *readerPool
		errors  func() uint64
	}{
		{"server", netip.AddrPortFrom(wSrv1, HTTPPort), "/", &w.srv1.readers, func() uint64 { return w.srv1.Served }},
		{"proxy", netip.AddrPortFrom(wProxy, ProxyPort), "http://www.example.com/", &w.proxy.readers, func() uint64 { return w.proxy.Errors }},
	} {
		before := ep.errors()
		if got := rawExchange(w, ep.dst, false, "BAD\r\n\r\n"); !strings.HasPrefix(got, "HTTP/1.1 400 ") {
			t.Errorf("%s: malformed head answered %q, want a 400", ep.name, got)
		}
		if n := ep.errors() - before; n != 1 {
			t.Errorf("%s: malformed head counted %d times by the endpoint's error writer, want 1", ep.name, n)
		}
		if len(ep.readers.free) != 1 {
			t.Fatalf("%s: %d pooled readers after one connection, want 1", ep.name, len(ep.readers.free))
		}
		reader := ep.readers.free[0]
		head := "GET " + ep.target + " HTTP/1.1\r\nHost: www.example.com\r\n\r\n"
		if got := rawExchange(w, ep.dst, false, head[:10], head[10:]); !strings.HasPrefix(got, "HTTP/1.1 200 ") {
			t.Errorf("%s: split head answered %q, want a 200", ep.name, firstLine(got))
		}
		if got := rawExchange(w, ep.dst, true, head[:10]); got != "" {
			t.Errorf("%s: incomplete head answered %q, want nothing", ep.name, firstLine(got))
		}
		if got := rawExchange(w, ep.dst, false, head); !strings.HasPrefix(got, "HTTP/1.1 200 ") {
			t.Errorf("%s: last head answered %q, want a 200", ep.name, firstLine(got))
		}
		if n := len(ep.readers.free); n != 1 || ep.readers.free[0] != reader {
			t.Errorf("%s: %d pooled readers after sequential connections, want the first one alone", ep.name, n)
		}
	}
}

// firstLine returns s up to its first CRLF.
func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\r\n")
	return line
}

func TestIdleTimeoutTiming(t *testing.T) {
	w := newWorld(t, 18)
	hung := func(simnet.Time) AppStatus { return AppStatus{Mode: AppHung} }
	w.srv1.Status = hung
	w.srv2.Status = hung
	var got *FetchResult
	start := w.net.Sched.Now()
	w.client.Fetch("http://www.example.com/", func(r *FetchResult) { got = r })
	w.net.Sched.Run()
	if got == nil {
		t.Fatal("never finished")
	}
	elapsed := w.net.Sched.Now().Sub(start)
	// 2 replicas x 2 tries x 60s idle each = 240s plus handshakes.
	if elapsed < 240*time.Second || elapsed > 260*time.Second {
		t.Errorf("elapsed = %v, want ~240s", elapsed)
	}
}

func TestHostHeaderEnforced(t *testing.T) {
	w := newWorld(t, 19)
	// srvOther serves only www.other.org; reaching it with the wrong
	// Host yields 404. Point example.com's DNS at it via a direct fetch
	// to its IP is not possible through the client API, so instead
	// register a page and check virtual hosting positively.
	r := w.fetch(t, w.client, "http://www.other.org/")
	if !r.OK {
		t.Fatalf("result = %+v", r)
	}
}

func TestStageAndKindStrings(t *testing.T) {
	if StageDNS.String() != "dns" || StageTCP.String() != "tcp" || StageHTTP.String() != "http" || StageNone.String() != "success" {
		t.Error("stage strings")
	}
	if NoConnection.String() != "no-connection" || NoResponse.String() != "no-response" || PartialResponse.String() != "partial-response" {
		t.Error("kind strings")
	}
	if AppHung.String() != "hung" || AppStall.String() != "stall" {
		t.Error("app mode strings")
	}
}

func TestProxyDNSCacheExpires(t *testing.T) {
	w := newWorld(t, 30)
	// Warm the cache.
	if r := w.fetch(t, w.prxClient, "http://www.example.com/"); !r.OK {
		t.Fatal("warmup failed")
	}
	// Break the hierarchy, advance past the proxy TTL: the proxy must
	// re-resolve, fail, and answer 502.
	w.auth.Status = func(simnet.Time) dnssim.Status { return dnssim.StatusDown }
	w.net.Sched.RunUntil(simnet.Time(11 * time.Minute))
	r := w.fetch(t, w.prxClient, "http://www.example.com/")
	if r.OK || r.StatusCode != 502 {
		t.Fatalf("result = %+v, want 502 after proxy cache expiry", r)
	}
}

func TestClientIdleTimeoutResetByProgress(t *testing.T) {
	// A slow-but-progressing transfer must NOT be killed: the 60 s rule
	// is an idle timeout, not a total-time limit (Section 3.1: "the
	// download could take longer provided it does not idle").
	w := newWorld(t, 31)
	w.client.IdleTimeout = 2 * time.Second
	// Stretch the transfer: high latency path -> multi-RTT download
	// whose inter-arrival gaps stay under the idle limit.
	w.net.SetPathFunc(func(src, dst *simnet.Host, now simnet.Time) simnet.PathState {
		return simnet.PathState{Latency: 400 * time.Millisecond}
	})
	r := w.fetch(t, w.client, "http://www.example.com/")
	if !r.OK {
		t.Fatalf("slow transfer killed: %+v", r)
	}
	if r.Elapsed < 2*time.Second {
		t.Errorf("elapsed = %v, expected a multi-second transfer", r.Elapsed)
	}
}
