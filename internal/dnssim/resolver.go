package dnssim

import (
	"math"
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
// A walk that gives up is walked again after retryPause while the budget
// lasts, as a real resolver re-walks the hierarchy while its client is
// still waiting rather than failing on the first unresponsive server set.
const (
	upstreamTimeout = 2 * time.Second
	recursionBudget = 30 * time.Second
	retryPause      = time.Second
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
		cq.walk.init(l.exch, upstreamTimeout, cq.walked)
		cq.onRetry = cq.rewalk
	}
	cq.src, cq.port = pkt.Src, srcPort
	cq.q.Header = q.Header
	cq.q.Questions = append(cq.q.Questions[:0], q.Questions...)
	cq.walk.roots = l.RootHints
	cq.walk.deadline = l.Host.Now().Add(recursionBudget)
	cq.walk.start(name)
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
// recurses: where to answer, the query's header and questions, and the
// walk resolving it. onRetry is the rewalk method value, created once per
// pooled instance like the walk's own continuations.
type clientQuery struct {
	l       *LDNS
	src     netip.Addr
	port    uint16
	q       dnswire.Message
	walk    walk
	onRetry func()
}

// walked answers the client once a walk ends with an answer or an error
// rcode, or once a walk that gave up leaves no time in the recursion
// budget for another, then returns the state to the pool.
func (cq *clientQuery) walked() {
	l, w := cq.l, &cq.walk
	if !w.ok && l.Host.Now().Add(retryPause) < w.deadline {
		l.Host.Network().Sched.After(retryPause, cq.onRetry)
		return
	}
	switch {
	case l.status() == StatusDown:
	case !w.ok:
		// Recursion exhausted its budget; answer SERVFAIL so a
		// *patient* client eventually sees an error. In practice the
		// stub's shorter timeout fires first, which is what makes an
		// unreachable authoritative server look like a "non-LDNS
		// timeout" at the client.
		l.reply(cq.src, cq.port, &cq.q, dnswire.RCodeServFail, nil, 0)
	case w.rcode != dnswire.RCodeNoError:
		l.reply(cq.src, cq.port, &cq.q, w.rcode, nil, 0)
	default:
		l.cache[cq.q.Questions[0].Name] = cacheEntry{addrs: w.addrs, expires: l.Host.Now().Add(60 * time.Second)}
		l.reply(cq.src, cq.port, &cq.q, dnswire.RCodeNoError, w.addrs, 30)
	}
	l.free = append(l.free, cq)
}

// rewalk walks the client's name again from the roots.
func (cq *clientQuery) rewalk() { cq.walk.start(cq.q.Questions[0].Name) }

// noDeadline is the deadline of a walk that only its per-query timeouts
// and its limits end.
const noDeadline = simnet.Time(math.MaxInt64)

// walk is one iterative resolution from the root servers down. The LDNS
// recurses with it and dig traces with it, so the dig that
// sub-classifies a failed lookup asks the servers the LDNS asked, in the
// same order, under the same limits. A walk asks a server set in order
// until one responds. It ends on an error rcode or an A answer, restarts
// from the roots on a CNAME and descends to a referral's glue. It gives
// up when a whole server set stays silent, at its deadline, on a
// referral without glue, and past maxReferrals descents or maxCNAMEChain
// restarts (a restart counts as a descent too).
type walk struct {
	exch    *exchanger
	roots   []netip.Addr
	timeout time.Duration
	// deadline caps every query's timeout and ends the walk once
	// passed.
	deadline simnet.Time
	// steps, when non-nil, gets one DigStep per query.
	steps *[]DigStep
	// done is called once the walk ends. ok reports an answer (addrs,
	// fresh, so the caller may keep it) or an error rcode; it is false
	// when the walk gave up.
	done  func()
	addrs []netip.Addr
	rcode dnswire.RCode
	ok    bool

	name string
	// servers is the set being asked and servers[next] the server to
	// ask next: the roots, or glue, the buffer referrals are read into.
	servers, glue []netip.Addr
	next          int
	depth, cnames int
	// onResp is the handle method value, created once per walk.
	onResp func(*dnswire.Message)
}

// init prepares a walk that queries through exch with the given
// per-query timeout and calls done when it ends.
func (w *walk) init(exch *exchanger, timeout time.Duration, done func()) {
	w.exch, w.timeout, w.done = exch, timeout, done
	w.onResp = w.handle
}

// start walks name from the roots.
func (w *walk) start(name string) {
	w.addrs, w.rcode, w.ok = nil, 0, false
	w.depth, w.cnames = 0, 0
	w.descend(name, w.roots)
}

// descend asks servers for name, unless the walk is past its limits.
func (w *walk) descend(name string, servers []netip.Addr) {
	if w.depth > maxReferrals || w.cnames > maxCNAMEChain {
		w.done()
		return
	}
	w.name, w.servers, w.next = name, servers, 0
	w.ask()
}

// ask queries the next server of the set, unless none is left (a
// referral without glue leaves none to begin with) or the deadline has
// passed.
func (w *walk) ask() {
	timeout := min(w.timeout, w.deadline.Sub(w.exch.host.Now()))
	if w.next >= len(w.servers) || timeout <= 0 {
		w.done()
		return
	}
	w.exch.query(w.servers[w.next], w.name, false, timeout, w.onResp)
}

// handle takes the response of the server asked last, or nil when it
// timed out.
func (w *walk) handle(resp *dnswire.Message) {
	srv := w.servers[w.next]
	w.next++
	if w.steps != nil {
		step := DigStep{Server: srv, Responded: resp != nil}
		if resp != nil {
			step.RCode = resp.Header.RCode
			step.Referral = len(resp.Authority) > 0 && len(resp.Answers) == 0
			step.Answered = len(resp.Answers) > 0
		}
		*w.steps = append(*w.steps, step)
	}
	if resp == nil {
		w.ask()
		return
	}
	if resp.Header.RCode != dnswire.RCodeNoError {
		w.rcode, w.ok = resp.Header.RCode, true
		w.done()
		return
	}
	var cname string
	n := 0
	for _, rr := range resp.Answers {
		switch rr.Type {
		case dnswire.TypeA:
			n++
		case dnswire.TypeCNAME:
			cname = rr.Target
		}
	}
	if n > 0 {
		w.addrs = make([]netip.Addr, 0, n)
		for _, rr := range resp.Answers {
			if rr.Type == dnswire.TypeA {
				w.addrs = append(w.addrs, rr.A)
			}
		}
		w.ok = true
		w.done()
		return
	}
	w.depth++
	if cname != "" {
		w.cnames++
		w.descend(cname, w.roots)
		return
	}
	w.glue = appendReferral(w.glue[:0], resp)
	w.descend(w.name, w.glue)
}

// appendReferral appends to dst the glue address of each NS record in
// resp's Authority section, in order, skipping servers without glue.
// When several A records in the Additional section name one server, the
// last one wins.
func appendReferral(dst []netip.Addr, resp *dnswire.Message) []netip.Addr {
	for _, ns := range resp.Authority {
		if ns.Type != dnswire.TypeNS {
			continue
		}
		for i := len(resp.Additional) - 1; i >= 0; i-- {
			if rr := &resp.Additional[i]; rr.Type == dnswire.TypeA && rr.Name == ns.Target {
				dst = append(dst, rr.A)
				break
			}
		}
	}
	return dst
}
