package httpsim

import (
	"net/netip"
	"time"

	"webfail/internal/dnssim"
	"webfail/internal/simnet"
	"webfail/internal/tcpsim"
)

// Stage identifies where a transaction failed, mirroring the paper's
// top-level failure taxonomy (Section 2.1).
type Stage uint8

// Failure stages.
const (
	// StageNone: the transaction succeeded.
	StageNone Stage = iota
	// StageDNS: name resolution failed.
	StageDNS
	// StageTCP: the TCP transfer failed.
	StageTCP
	// StageHTTP: the server returned an HTTP error.
	StageHTTP
)

func (s Stage) String() string {
	switch s {
	case StageNone:
		return "success"
	case StageDNS:
		return "dns"
	case StageTCP:
		return "tcp"
	case StageHTTP:
		return "http"
	default:
		return "unknown"
	}
}

// ConnFailKind sub-classifies TCP failures (Section 2.1, category 2).
type ConnFailKind uint8

// TCP connection failure kinds.
const (
	// ConnOK: the connection carried a complete response.
	ConnOK ConnFailKind = iota
	// NoConnection: the SYN handshake failed.
	NoConnection
	// NoResponse: connected and sent the request, received nothing.
	NoResponse
	// PartialResponse: received part of the response, then the
	// connection died or idled out.
	PartialResponse
)

func (k ConnFailKind) String() string {
	switch k {
	case ConnOK:
		return "ok"
	case NoConnection:
		return "no-connection"
	case NoResponse:
		return "no-response"
	case PartialResponse:
		return "partial-response"
	default:
		return "unknown"
	}
}

// ConnAttempt records one TCP connection attempt. Start/End bound the
// attempt on the virtual clock and LocalPort identifies the client side
// of the flow, so a trace capture's per-flow statistics (trace.Flow is
// keyed by address:port pairs) can be joined back to the attempt — the
// cross-layer link the paper's Section 3.5 post-processing performs.
type ConnAttempt struct {
	Addr      netip.Addr
	Kind      ConnFailKind
	Start     simnet.Time
	End       simnet.Time
	LocalPort uint16
}

// FetchResult is the complete outcome of one wget invocation (one
// transaction in the paper's vocabulary).
type FetchResult struct {
	URL string
	OK  bool
	// Stage is where the transaction failed (StageNone on success).
	Stage Stage
	// DNS holds the final DNS outcome (zero value when proxied: the
	// proxy does the resolution, masking it from the client —
	// Section 3.4).
	DNS dnssim.Result
	// DNSAttempted is false for proxied fetches.
	DNSAttempted bool
	// UsedBackupDNS reports that the primary resolver timed out and the
	// CoDNS-style backup answered instead.
	UsedBackupDNS bool
	// Attempts lists every TCP connection attempt across retries,
	// failovers, and redirects. Table 3 counts connections from here.
	Attempts []ConnAttempt
	// FailKind is the TCP failure kind of the decisive (last) attempt.
	FailKind ConnFailKind
	// StatusCode is the final HTTP status (0 if none received).
	StatusCode int
	// Bytes counts response body bytes received (possibly partial).
	Bytes int
	// Redirects counts redirections followed.
	Redirects int
	// Elapsed is the total simulated wall time of the transaction.
	Elapsed time.Duration
	// ReplicaIP is the last server address contacted directly (the
	// proxy address for proxied fetches).
	ReplicaIP netip.Addr
}

const (
	// maxRedirects bounds redirect chains.
	maxRedirects = 5
	// tries is the number of full TCP attempts per URL before giving up
	// (wget-style retry).
	tries = 2
)

// Client is the wget-like downloader.
type Client struct {
	Stack    *tcpsim.Stack
	Resolver *dnssim.StubResolver
	// BackupResolver, when set, is consulted after the primary
	// resolver times out — a CoDNS-style cooperative lookup (Park et
	// al., OSDI 2004; the paper's Section 5 argues LDNS reliability is
	// the single biggest lever on end-to-end failure rates, and this
	// is the standard remedy). Only timeouts fail over; definitive
	// errors (NXDOMAIN/SERVFAIL) do not, since a second resolver would
	// return the same answer.
	BackupResolver *dnssim.StubResolver
	// Proxy, when valid, routes all requests through a forward proxy.
	Proxy netip.AddrPort
	// IdleTimeout aborts a download whose connection makes no progress
	// for this long (paper: 60 s). Zero means the default.
	IdleTimeout time.Duration
	// NoCache sets Cache-Control: no-cache on requests, as the
	// corporate-network clients did (Section 3.4).
	NoCache bool

	// free pools finished per-request states. Nothing retains a
	// response body past the request's completion callback, so a
	// finished state's parser buffer is recycled at full capacity.
	free []*request
	// head is the request-head scratch; Conn.Send copies it.
	head []byte
}

// NewClient builds a direct (non-proxied) client.
func NewClient(stack *tcpsim.Stack, resolver *dnssim.StubResolver) *Client {
	return &Client{Stack: stack, Resolver: resolver}
}

func (c *Client) idleTimeout() time.Duration {
	if c.IdleTimeout > 0 {
		return c.IdleTimeout
	}
	return 60 * time.Second
}

func (c *Client) now() simnet.Time { return c.Stack.Host().Now() }

// Fetch downloads url and calls done exactly once with the result.
func (c *Client) Fetch(url string, done func(*FetchResult)) {
	res := &FetchResult{URL: url}
	start := c.now()
	finish := func() {
		res.Elapsed = c.now().Sub(start)
		done(res)
	}
	c.fetchURL(res, url, 0, finish)
}

// fetchURL handles one (possibly redirected) URL.
func (c *Client) fetchURL(res *FetchResult, url string, redirects int, finish func()) {
	host, path, err := SplitURL(url)
	if err != nil {
		res.Stage = StageHTTP
		finish()
		return
	}
	if c.Proxy.IsValid() {
		// Proxied: the proxy resolves the name; request uses
		// absolute-form.
		req := &Request{Method: "GET", Target: "http://" + host + path, Host: host, NoCache: c.NoCache}
		c.tryAddrs(res, req, []netip.Addr{c.Proxy.Addr()}, c.Proxy.Port(), 0, 1, redirects, finish)
		return
	}
	c.Resolver.LookupA(host, func(r dnssim.Result) {
		res.DNS = r
		res.DNSAttempted = true
		if r.Kind == dnssim.ResultTimeout && c.BackupResolver != nil {
			c.BackupResolver.LookupA(host, func(br dnssim.Result) {
				res.DNS = br
				res.UsedBackupDNS = true
				c.afterDNS(res, host, path, redirects, finish)
			})
			return
		}
		c.afterDNS(res, host, path, redirects, finish)
	})
}

// afterDNS continues a direct fetch once resolution (primary or backup)
// has concluded.
func (c *Client) afterDNS(res *FetchResult, host, path string, redirects int, finish func()) {
	if res.DNS.Kind != dnssim.ResultOK {
		res.Stage = StageDNS
		finish()
		return
	}
	req := &Request{Method: "GET", Target: path, Host: host, NoCache: c.NoCache}
	c.tryAddrs(res, req, res.DNS.Addrs, HTTPPort, 0, 1, redirects, finish)
}

// tryAddrs attempts the request against addrs[i:], failing over on
// connection errors; when the list is exhausted it starts another try
// until the budget is spent.
func (c *Client) tryAddrs(res *FetchResult, req *Request, addrs []netip.Addr, port uint16, i, try, redirects int, finish func()) {
	if i >= len(addrs) {
		if try < tries {
			c.tryAddrs(res, req, addrs, port, 0, try+1, redirects, finish)
			return
		}
		res.Stage = StageTCP
		if res.FailKind == ConnOK {
			res.FailKind = NoConnection
		}
		finish()
		return
	}
	addr := addrs[i]
	res.ReplicaIP = addr
	start := c.now()
	c.request(req, netip.AddrPortFrom(addr, port), func(out *requestOutcome) {
		res.Attempts = append(res.Attempts, ConnAttempt{
			Addr: addr, Kind: out.kind,
			Start: start, End: c.now(), LocalPort: out.localPort,
		})
		res.Bytes += out.bodyBytes
		switch {
		case out.kind == ConnOK:
			c.handleResponse(res, req, out.resp, redirects, finish)
		default:
			res.FailKind = out.kind
			c.tryAddrs(res, req, addrs, port, i+1, try, redirects, finish)
		}
	})
}

// handleResponse interprets a complete HTTP response.
func (c *Client) handleResponse(res *FetchResult, req *Request, resp *Response, redirects int, finish func()) {
	res.StatusCode = resp.StatusCode
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		res.OK = true
		res.Stage = StageNone
		res.FailKind = ConnOK
		finish()
	case (resp.StatusCode == 301 || resp.StatusCode == 302) && resp.Location != "":
		if redirects+1 > maxRedirects {
			res.Stage = StageHTTP
			finish()
			return
		}
		res.Redirects = redirects + 1
		c.fetchURL(res, resp.Location, redirects+1, finish)
	default:
		res.Stage = StageHTTP
		finish()
	}
}

// requestOutcome is the result of a single connection-level attempt.
type requestOutcome struct {
	kind      ConnFailKind
	resp      *Response
	bodyBytes int
	localPort uint16
}

// request is the in-flight state of one connection-level attempt: one TCP
// connection and GET against a specific address. Its callbacks are method
// values created once per pooled instance, so reusing the state reuses
// them.
type request struct {
	c            *Client
	req          *Request
	done         func(*requestOutcome)
	conn         *tcpsim.Conn
	parser       ResponseParser
	out          requestOutcome
	idleTimer    simnet.TimerHandle
	lastProgress simnet.Time
	finished     bool

	callbacks tcpsim.Callbacks
	onIdle    func()
}

// request performs one TCP connection + GET against a specific address.
func (c *Client) request(req *Request, to netip.AddrPort, done func(*requestOutcome)) {
	var r *request
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		r = &request{c: c, parser: ResponseParser{buf: make([]byte, 0, 512)}}
		r.callbacks = tcpsim.Callbacks{OnConnect: r.handleConnect, OnData: r.handleData, OnClose: r.handleClose}
		r.onIdle = r.handleIdle
	}
	r.req, r.done = req, done
	r.parser.reset()
	r.out = requestOutcome{}
	r.finished = false
	r.lastProgress = c.now()
	r.conn = c.Stack.Dial(to, r.callbacks)
	r.armIdle(c.idleTimeout())
}

// finish reports the outcome once, detaches the connection (whose later
// events must not reach a reused state) and returns the state to the
// pool.
func (r *request) finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.idleTimer.Stop()
	if r.conn != nil {
		r.out.localPort = r.conn.LocalPort()
		r.conn.SetCallbacks(tcpsim.Callbacks{})
	}
	r.out.bodyBytes = r.parser.Partial()
	if r.out.kind == ConnOK && r.out.resp != nil {
		r.out.bodyBytes = len(r.out.resp.Body)
	}
	done := r.done
	r.done, r.req, r.conn = nil, nil, nil
	done(&r.out)
	// done has consumed the response (out.resp.Body aliases the parser
	// buffer); recycle the state for the next request.
	r.c.free = append(r.c.free, r)
}

func (r *request) fail(kind ConnFailKind) {
	if r.finished {
		return
	}
	r.out.kind = kind
	r.finish()
}

// failNoData fails as a partial response if any response bytes arrived,
// as no response otherwise.
func (r *request) failNoData() {
	if r.parser.Partial() > 0 || r.parser.HeadDone() {
		r.fail(PartialResponse)
	} else {
		r.fail(NoResponse)
	}
}

func (r *request) armIdle(d time.Duration) {
	r.idleTimer = r.c.Stack.Host().Network().Sched.AfterHandle(d, r.onIdle)
}

func (r *request) handleIdle() {
	if r.finished {
		return
	}
	c := r.c
	idle := c.now().Sub(r.lastProgress)
	if idle >= c.idleTimeout() {
		// wget gives up: terminate the connection.
		r.conn.Abort()
		r.failNoData()
		return
	}
	r.armIdle(c.idleTimeout() - idle)
}

func (r *request) handleConnect() {
	c := r.c
	r.lastProgress = c.now()
	c.head = AppendRequest(c.head[:0], r.req)
	r.conn.Send(c.head)
}

func (r *request) handleData(data []byte) {
	if r.finished {
		return
	}
	r.lastProgress = r.c.now()
	full, err := r.parser.Feed(data)
	if err != nil {
		r.conn.Abort()
		r.fail(PartialResponse)
		return
	}
	if full {
		r.out.kind = ConnOK
		r.out.resp = r.parser.Response()
		r.conn.Close()
		r.finish()
	}
}

func (r *request) handleClose(err error) {
	if r.finished {
		return
	}
	switch err {
	case tcpsim.ErrConnTimeout, tcpsim.ErrConnRefused:
		r.fail(NoConnection)
	default:
		// A clean close before the full body (the server closed
		// early) or a reset mid-stream.
		r.failNoData()
	}
}
