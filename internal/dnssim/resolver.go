package dnssim

import (
	"net/netip"
	"time"

	"webfail/internal/dnswire"
	"webfail/internal/simnet"
)

// Timing of the recursive resolver. Per-upstream-query timeout is
// short and retried across the candidate name servers; the overall
// recursion budget is generous, so when authoritative servers are
// unreachable the *client* gives up before the LDNS does — producing the
// paper's "non-LDNS timeout" signature (responsive LDNS, lookup times out).
const (
	upstreamTimeout = 2 * time.Second
	recursionBudget = 30 * time.Second
	maxReferrals    = 16
	maxCNAMEChain   = 8
)

// ProbeName is the root-server name used to test LDNS responsiveness
// without triggering recursion.
const ProbeName = "a.root-servers.net"

// cacheEntry is a cached positive answer.
type cacheEntry struct {
	addrs   []netip.Addr
	expires simnet.Time
}

// LDNS is a caching recursive resolver bound to port 53 of its host.
// Its availability is controlled by Status; when down, it drops queries
// (the client observes an "LDNS timeout", the dominant DNS failure class
// in the paper at 74–83%).
type LDNS struct {
	Host   *simnet.Host
	Status StatusFunc

	// RootHints are the root server addresses recursion starts from.
	RootHints []netip.Addr

	exch  *exchanger
	cache map[string]cacheEntry

	// q and resp are the scratch client query and response; q is valid
	// only until handle returns.
	q, resp dnswire.Message
	dec     dnswire.Decoder
	enc     dnswire.Encoder
	// free pools finished clientQuery states.
	free []*clientQuery

	// Stats observable by tests and the harness.
	Hits, Misses, Recursions uint64
}

// NewLDNS binds a recursive resolver to the host.
func NewLDNS(host *simnet.Host, rootHints []netip.Addr) *LDNS {
	l := &LDNS{
		Host:      host,
		RootHints: rootHints,
		exch:      newExchanger(host),
		cache:     make(map[string]cacheEntry),
	}
	if err := host.Bind(simnet.UDP, Port, l.handle); err != nil {
		panic("dnssim: ldns bind: " + err.Error())
	}
	return l
}

// FlushCache drops all cached entries, as the measurement procedure does
// before every download (Section 3.4 step 1).
func (l *LDNS) FlushCache() { clear(l.cache) }

func (l *LDNS) status() Status {
	if l.Status == nil {
		return StatusUp
	}
	return l.Status(l.Host.Now())
}

// handle serves a client query.
func (l *LDNS) handle(pkt *simnet.Packet) {
	q := &l.q
	srcPort, ok := decodeQuery(pkt, &l.dec, q)
	if !ok {
		return
	}
	if l.status() == StatusDown {
		return // unreachable LDNS: client times out
	}
	name := q.Questions[0].Name

	if name == ProbeName {
		// Responsiveness probe: answered from the root hints without
		// recursion, mirroring the root-server A-record availability
		// check of Pang et al. (reference [22] in the paper).
		l.reply(pkt.Src, srcPort, q, dnswire.RCodeNoError, l.RootHints, 3600)
		return
	}

	if e, ok := l.cache[name]; ok && e.expires > l.Host.Now() {
		l.Hits++
		l.reply(pkt.Src, srcPort, q, dnswire.RCodeNoError, e.addrs, 30)
		return
	}
	l.Misses++
	l.Recursions++

	// The decoded query dies with this handler; recursion keeps what the
	// answer needs in a pooled clientQuery.
	var cq *clientQuery
	if n := len(l.free); n > 0 {
		cq = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		cq = &clientQuery{l: l}
		cq.onDone = cq.done
	}
	cq.src, cq.port = pkt.Src, srcPort
	cq.q.Header = q.Header
	cq.q.Questions = append(cq.q.Questions[:0], q.Questions...)
	deadline := l.Host.Now().Add(recursionBudget)
	l.recurseWithRetry(name, deadline, cq.onDone)
}

// reply answers q with rcode and one A record per address.
func (l *LDNS) reply(to netip.Addr, toPort uint16, q *dnswire.Message, rcode dnswire.RCode, addrs []netip.Addr, ttl uint32) {
	resp := &l.resp
	resp.SetResponse(q, rcode, false)
	name := q.Questions[0].Name
	for _, a := range addrs {
		resp.Answers = append(resp.Answers, dnswire.RR{Name: name, Type: dnswire.TypeA, TTL: ttl, A: a})
	}
	replyUDP(l.Host, &l.enc, to, toPort, resp)
}

// clientQuery is what the LDNS keeps of a client's query while it
// recurses: where to answer, and the query's header and questions. onDone
// is the done method value, created once per pooled instance.
type clientQuery struct {
	l      *LDNS
	src    netip.Addr
	port   uint16
	q      dnswire.Message
	onDone func([]netip.Addr, dnswire.RCode, bool)
}

// done answers the client once recursion concludes, then returns the
// state to the pool.
func (cq *clientQuery) done(addrs []netip.Addr, rcode dnswire.RCode, ok bool) {
	l := cq.l
	switch {
	case l.status() == StatusDown:
	case !ok:
		// Recursion exhausted its budget; answer SERVFAIL so a
		// *patient* client eventually sees an error. In practice the
		// stub's shorter timeout fires first, which is what makes an
		// unreachable authoritative server look like a "non-LDNS
		// timeout" at the client.
		l.reply(cq.src, cq.port, &cq.q, dnswire.RCodeServFail, nil, 0)
	case rcode != dnswire.RCodeNoError:
		l.reply(cq.src, cq.port, &cq.q, rcode, nil, 0)
	default:
		l.cache[cq.q.Questions[0].Name] = cacheEntry{addrs: addrs, expires: l.Host.Now().Add(60 * time.Second)}
		l.reply(cq.src, cq.port, &cq.q, dnswire.RCodeNoError, addrs, 30)
	}
	l.free = append(l.free, cq)
}

// recurseWithRetry drives full recursion attempts until one terminates
// definitively (answer or error rcode) or the budget deadline passes. A
// real resolver similarly re-walks the hierarchy while its client is still
// waiting rather than failing on the first unresponsive server set.
func (l *LDNS) recurseWithRetry(name string, deadline simnet.Time, done func([]netip.Addr, dnswire.RCode, bool)) {
	l.recurse(name, name, l.RootHints, 0, 0, deadline, func(addrs []netip.Addr, rcode dnswire.RCode, ok bool) {
		if ok {
			done(addrs, rcode, true)
			return
		}
		const retryPause = time.Second
		if l.Host.Now().Add(retryPause) >= deadline {
			done(nil, 0, false)
			return
		}
		l.Host.Network().Sched.After(retryPause, func() {
			l.recurseWithRetry(name, deadline, done)
		})
	})
}

// recurse iteratively resolves name starting from the servers list,
// following referrals and CNAMEs. done is called exactly once with either
// (addrs, NOERROR, true), (nil, errorRCode, true), or (nil, 0, false) when
// the budget or referral depth is exhausted.
func (l *LDNS) recurse(origName, name string, servers []netip.Addr, depth, cnames int, deadline simnet.Time, done func([]netip.Addr, dnswire.RCode, bool)) {
	if depth > maxReferrals || cnames > maxCNAMEChain || len(servers) == 0 {
		done(nil, 0, false)
		return
	}
	l.tryServers(name, servers, 0, deadline, func(resp *dnswire.Message) {
		if resp == nil {
			done(nil, 0, false)
			return
		}
		if resp.Header.RCode != dnswire.RCodeNoError {
			done(nil, resp.Header.RCode, true)
			return
		}
		addrs := make([]netip.Addr, 0, len(resp.Answers))
		var cname string
		for _, rr := range resp.Answers {
			switch rr.Type {
			case dnswire.TypeA:
				addrs = append(addrs, rr.A)
			case dnswire.TypeCNAME:
				cname = rr.Target
			}
		}
		if len(addrs) > 0 {
			done(addrs, dnswire.RCodeNoError, true)
			return
		}
		if cname != "" {
			// Restart resolution for the CNAME target from the
			// roots.
			l.recurse(origName, cname, l.RootHints, depth+1, cnames+1, deadline, done)
			return
		}
		next := referral(resp)
		if len(next) == 0 {
			// Lame referral (no usable glue): treat as failure.
			done(nil, 0, false)
			return
		}
		l.recurse(origName, name, next, depth+1, cnames, deadline, done)
	})
}

// tryServers queries servers[i:] in order until one responds or all time
// out or the deadline passes.
func (l *LDNS) tryServers(name string, servers []netip.Addr, i int, deadline simnet.Time, done func(*dnswire.Message)) {
	if i >= len(servers) || l.Host.Now() >= deadline {
		done(nil)
		return
	}
	timeout := upstreamTimeout
	if remaining := deadline.Sub(l.Host.Now()); remaining < timeout {
		timeout = remaining
	}
	if timeout <= 0 {
		done(nil)
		return
	}
	l.exch.query(servers[i], name, false, timeout, func(resp *dnswire.Message) {
		if resp != nil {
			done(resp)
			return
		}
		l.tryServers(name, servers, i+1, deadline, done)
	})
}

// referral returns the glue address of each NS record in resp's Authority
// section, in order, skipping servers without glue. When several A
// records in the Additional section name one server, the last one wins.
// The result is fresh: the caller keeps it across events.
func referral(resp *dnswire.Message) []netip.Addr {
	var next []netip.Addr
	for _, ns := range resp.Authority {
		if ns.Type != dnswire.TypeNS {
			continue
		}
		for i := len(resp.Additional) - 1; i >= 0; i-- {
			if rr := &resp.Additional[i]; rr.Type == dnswire.TypeA && rr.Name == ns.Target {
				next = append(next, rr.A)
				break
			}
		}
	}
	return next
}
