package httpsim

import (
	"net/netip"
	"time"

	"webfail/internal/dnssim"
	"webfail/internal/simnet"
	"webfail/internal/tcpsim"
)

// ProxyPort is the forward-proxy port.
const ProxyPort = 8080

// proxyDNSCacheTTL is how long the proxy keeps a resolved name.
const proxyDNSCacheTTL = 10 * time.Minute

// Proxy is an ISA-style forward web proxy (Section 4.7): it resolves
// origin names itself (with a cache the client cannot flush), connects to
// the FIRST resolved address only — no failover across a multi-A-record
// site, the behaviour the paper identifies as the root cause of the
// elevated www.iitb.ac.in failure rate for proxied clients — and relays
// the response stream.
type Proxy struct {
	Stack    *tcpsim.Stack
	Resolver *dnssim.StubResolver

	// Failover, when true, lets the proxy try subsequent addresses like
	// wget does. The paper's proxies do not; this switch exists for the
	// ablation bench.
	Failover bool

	dnsCache map[string]proxyCacheEntry
	// readers reads each client connection's request head; handle
	// copies what outlives the parsed request. out is request-head and
	// response scratch (Conn.Send copies).
	readers readerPool
	out     []byte

	// Relayed counts successfully relayed responses.
	Relayed uint64
	// Errors counts gateway errors returned to clients.
	Errors uint64
}

type proxyCacheEntry struct {
	addrs   []netip.Addr
	expires simnet.Time
}

// NewProxy attaches a proxy to the stack's ProxyPort.
func NewProxy(stack *tcpsim.Stack, resolver *dnssim.StubResolver) *Proxy {
	p := &Proxy{
		Stack:    stack,
		Resolver: resolver,
		dnsCache: make(map[string]proxyCacheEntry),
	}
	p.readers = readerPool{serve: p.handle, reject: p.gatewayError}
	err := stack.Listen(ProxyPort, &tcpsim.Listener{Accept: p.readers.accept})
	if err != nil {
		panic("httpsim: proxy listen: " + err.Error())
	}
	return p
}

func (p *Proxy) now() simnet.Time { return p.Stack.Host().Now() }

// handle resolves and relays one proxied request.
func (p *Proxy) handle(client *tcpsim.Conn, req *Request) {
	host, path, err := SplitURL(req.Target)
	if err != nil {
		p.gatewayError(client, 400)
		return
	}
	noCache := req.NoCache
	p.resolve(host, func(addrs []netip.Addr) {
		if len(addrs) == 0 {
			p.gatewayError(client, 502)
			return
		}
		if !p.Failover {
			addrs = addrs[:1]
		}
		origin := &Request{Method: "GET", Target: path, Host: host, NoCache: noCache}
		p.connectOrigin(client, origin, addrs, 0)
	})
}

// resolve returns cached addresses or performs a lookup. The client has no
// way to flush this cache, so proxy-side DNS failures (and successes) are
// masked from the client for the TTL.
func (p *Proxy) resolve(host string, done func([]netip.Addr)) {
	if e, ok := p.dnsCache[host]; ok && e.expires > p.now() {
		done(e.addrs)
		return
	}
	p.Resolver.LookupA(host, func(r dnssim.Result) {
		if r.Kind != dnssim.ResultOK {
			done(nil)
			return
		}
		p.dnsCache[host] = proxyCacheEntry{addrs: r.Addrs, expires: p.now().Add(proxyDNSCacheTTL)}
		done(r.Addrs)
	})
}

// connectOrigin dials addrs[i] and relays the exchange. Failover to i+1
// happens only when p.Failover is set.
func (p *Proxy) connectOrigin(client *tcpsim.Conn, origin *Request, addrs []netip.Addr, i int) {
	if i >= len(addrs) {
		p.gatewayError(client, 504)
		return
	}
	started := false
	var oconn *tcpsim.Conn
	oconn = p.Stack.Dial(netip.AddrPortFrom(addrs[i], HTTPPort), tcpsim.Callbacks{
		OnConnect: func() {
			started = true
			p.out = AppendRequest(p.out[:0], origin)
			oconn.Send(p.out)
		},
		OnData: func(data []byte) {
			// Relay verbatim; the proxy does not reinterpret the
			// stream (no caching in the no-cache study setup).
			client.Send(data)
		},
		OnClose: func(err error) {
			switch {
			case err == nil:
				client.Close()
				p.Relayed++
			case !started:
				// Connect-level failure.
				if p.Failover && i+1 < len(addrs) {
					p.connectOrigin(client, origin, addrs, i+1)
					return
				}
				p.gatewayError(client, 504)
			default:
				// Mid-stream failure: propagate the abort so the
				// client sees a partial response, as a real relay
				// would.
				client.Abort()
			}
		},
	})
}

func (p *Proxy) gatewayError(client *tcpsim.Conn, code int) {
	p.Errors++
	text := StatusText(code)
	p.out = AppendResponseHead(p.out[:0], &Response{StatusCode: code, ContentLength: len(text) + 1})
	client.Send(p.out)
	p.out = append(append(p.out[:0], text...), '\n')
	client.Send(p.out)
	client.Close()
}
