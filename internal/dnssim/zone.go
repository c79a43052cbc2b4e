package dnssim

import (
	"net/netip"
	"slices"
	"sort"
	"strings"
	"time"

	"webfail/internal/dnswire"
	"webfail/internal/simnet"
)

// Status models the health of a DNS server at an instant.
type Status uint8

// Server health states that the fault layer can impose.
const (
	// StatusUp answers normally.
	StatusUp Status = iota
	// StatusDown drops every query — the server or its connectivity is
	// gone. Clients observe a timeout.
	StatusDown
	// StatusServFail answers every query with SERVFAIL — the "buggy or
	// incorrectly configured authoritative server" of Section 4.2.
	StatusServFail
	// StatusNXDomain answers every query with NXDOMAIN even for names it
	// should resolve — the misconfiguration observed for
	// www.brazzil.com and www.espn.com in the paper.
	StatusNXDomain
)

func (s Status) String() string {
	switch s {
	case StatusUp:
		return "up"
	case StatusDown:
		return "down"
	case StatusServFail:
		return "servfail"
	case StatusNXDomain:
		return "nxdomain"
	default:
		return "unknown"
	}
}

// StatusFunc resolves a server's health at a simulated instant. A nil
// StatusFunc means always up.
type StatusFunc func(now simnet.Time) Status

// Delegation names the authoritative servers for a child zone, with glue.
type Delegation struct {
	NSNames []string
	Glue    map[string]netip.Addr
}

// Zone is one cut of the namespace served authoritatively, with optional
// delegations to children.
type Zone struct {
	// Apex is the zone origin, canonical form; "" is the root zone.
	Apex string
	// RRs maps owner names to their records (A and CNAME).
	RRs map[string][]dnswire.RR
	// Children maps child zone apexes to their delegations.
	Children map[string]Delegation
}

// NewZone creates an empty zone at apex.
func NewZone(apex string) *Zone {
	return &Zone{
		Apex:     dnswire.Canonical(apex),
		RRs:      make(map[string][]dnswire.RR),
		Children: make(map[string]Delegation),
	}
}

// AddA records an address for name.
func (z *Zone) AddA(name string, addr netip.Addr, ttl uint32) {
	name = dnswire.Canonical(name)
	z.RRs[name] = append(z.RRs[name], dnswire.RR{Name: name, Type: dnswire.TypeA, TTL: ttl, A: addr})
}

// AddCNAME records an alias.
func (z *Zone) AddCNAME(name, target string, ttl uint32) {
	name = dnswire.Canonical(name)
	z.RRs[name] = append(z.RRs[name], dnswire.RR{Name: name, Type: dnswire.TypeCNAME, TTL: ttl, Target: dnswire.Canonical(target)})
}

// Delegate records that child (a zone apex under this zone) is served by
// the named servers at the given addresses.
func (z *Zone) Delegate(child string, ns map[string]netip.Addr) {
	child = dnswire.Canonical(child)
	d := Delegation{Glue: make(map[string]netip.Addr, len(ns))}
	for name, addr := range ns {
		d.NSNames = append(d.NSNames, dnswire.Canonical(name))
		d.Glue[dnswire.Canonical(name)] = addr
	}
	sort.Strings(d.NSNames)
	z.Children[child] = d
}

// inZone reports whether name is at or below the zone apex.
func (z *Zone) inZone(name string) bool {
	if z.Apex == "" {
		return true
	}
	return name == z.Apex || strings.HasSuffix(name, "."+z.Apex)
}

// matchDelegation returns the closest enclosing delegation for name.
func (z *Zone) matchDelegation(name string) (string, Delegation, bool) {
	// Walk suffixes from most to least specific so the deepest
	// delegation wins.
	for cand := name; cand != ""; {
		if d, ok := z.Children[cand]; ok && cand != z.Apex {
			return cand, d, true
		}
		_, rest, found := strings.Cut(cand, ".")
		if !found {
			break
		}
		cand = rest
	}
	return "", Delegation{}, false
}

// processingDelay models an authoritative server's think time before a
// response.
const processingDelay = 500 * time.Microsecond

// AuthServer is an authoritative DNS server attached to a simnet host. It
// may serve several zones (as real TLD operators do).
type AuthServer struct {
	Host   *simnet.Host
	Status StatusFunc

	zones []*Zone

	// rot drives round-robin rotation of multi-A answers, the standard
	// BIND behaviour that spreads load across replicas (and the reason
	// every replica accounts for a fair share of connections in the
	// Section 4.5 census). It is keyed by query source so each
	// resolver sees its own strict rotation: the rotation a client's
	// lookup observes then depends only on that client's site's own
	// query history, which keeps sharded packet runs byte-identical to
	// serial ones (shard boundaries never split a site). The key is the
	// source's packed IPv4 address (simnet.AddrKey).
	rot map[uint32]uint32

	// q and resp are the scratch query and response; q is valid only
	// until handle returns.
	q, resp dnswire.Message
	dec     dnswire.Decoder
	enc     dnswire.Encoder
	// free pools sent delayedReply records.
	free []*delayedReply
}

// NewAuthServer binds an authoritative server to the host's port 53.
func NewAuthServer(host *simnet.Host, zones ...*Zone) *AuthServer {
	s := &AuthServer{Host: host, zones: zones}
	if err := host.Bind(simnet.UDP, Port, s.handle); err != nil {
		panic("dnssim: auth server bind: " + err.Error())
	}
	return s
}

// AddZone attaches another zone to this server.
func (s *AuthServer) AddZone(z *Zone) { s.zones = append(s.zones, z) }

func (s *AuthServer) status() Status {
	if s.Status == nil {
		return StatusUp
	}
	return s.Status(s.Host.Now())
}

func (s *AuthServer) handle(pkt *simnet.Packet) {
	q := &s.q
	srcPort, ok := decodeQuery(pkt, &s.dec, q)
	if !ok {
		return
	}
	switch s.status() {
	case StatusDown:
		return // silence: client times out
	case StatusServFail:
		s.resp.SetResponse(q, dnswire.RCodeServFail, false)
		replyUDP(s.Host, &s.enc, pkt.Src, srcPort, &s.resp)
		return
	case StatusNXDomain:
		s.resp.SetResponse(q, dnswire.RCodeNXDomain, true)
		replyUDP(s.Host, &s.enc, pkt.Src, srcPort, &s.resp)
		return
	}
	s.answer(q, pkt.Src)
	payload, err := s.enc.Encode(&s.resp)
	if err != nil {
		panic("dnssim: response encode: " + err.Error())
	}
	var r *delayedReply
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		r = &delayedReply{s: s}
		r.onFire = r.fire
	}
	r.to, r.port = pkt.Src, srcPort
	r.payload = append(r.payload[:0], payload...)
	s.Host.Network().Sched.After(processingDelay, r.onFire)
}

// delayedReply is an encoded answer waiting out the server's processing
// delay. onFire is the fire method value, created once per pooled
// instance.
type delayedReply struct {
	s       *AuthServer
	to      netip.Addr
	port    uint16
	payload []byte
	onFire  func()
}

// fire sends the answer unless the server went down while processing,
// then returns the record to the pool.
func (r *delayedReply) fire() {
	s := r.s
	if s.status() != StatusDown {
		sendUDP(s.Host, Port, r.to, r.port, r.payload)
	}
	s.free = append(s.free, r)
}

// answer builds in s.resp the authoritative response for a well-formed
// query from src.
func (s *AuthServer) answer(q *dnswire.Message, src netip.Addr) {
	resp := &s.resp
	question := q.Questions[0]
	name := question.Name

	// Pick the most specific zone this server serves for the name.
	var zone *Zone
	for _, z := range s.zones {
		if !z.inZone(name) {
			continue
		}
		if zone == nil || len(z.Apex) > len(zone.Apex) {
			zone = z
		}
	}
	if zone == nil {
		resp.SetResponse(q, dnswire.RCodeRefused, false)
		return
	}

	resp.SetResponse(q, dnswire.RCodeNoError, true)

	// Follow CNAME chains inside the zone, collecting answers.
	seen := 0
	for {
		rrs, ok := zone.RRs[name]
		if ok {
			// An owner's CNAMEs precede its records of the queried
			// type, which rotate as one set.
			var cname string
			for _, rr := range rrs {
				if rr.Type == dnswire.TypeCNAME {
					cname = rr.Target
					resp.Answers = append(resp.Answers, rr)
				}
			}
			start := len(resp.Answers)
			for _, rr := range rrs {
				if rr.Type != dnswire.TypeCNAME && rr.Type == question.Type {
					resp.Answers = append(resp.Answers, rr)
				}
			}
			if answers := resp.Answers[start:]; len(answers) > 1 {
				if s.rot == nil {
					s.rot = make(map[uint32]uint32)
				}
				k := simnet.AddrKey(src)
				s.rot[k]++
				rotateLeft(answers, int(s.rot[k])%len(answers))
			}
			if cname != "" && seen < 8 {
				seen++
				name = cname
				if !zone.inZone(name) {
					// Target outside the zone: the resolver
					// restarts resolution there.
					return
				}
				continue
			}
			return
		}
		// No records: referral or NXDOMAIN.
		if child, d, ok := zone.matchDelegation(name); ok {
			resp.Header.Authoritative = false
			for _, nsName := range d.NSNames {
				resp.Authority = append(resp.Authority, dnswire.RR{
					Name: child, Type: dnswire.TypeNS, TTL: 86400, Target: nsName,
				})
				if glue, ok := d.Glue[nsName]; ok {
					resp.Additional = append(resp.Additional, dnswire.RR{
						Name: nsName, Type: dnswire.TypeA, TTL: 86400, A: glue,
					})
				}
			}
			return
		}
		resp.Header.RCode = dnswire.RCodeNXDomain
		return
	}
}

// rotateLeft rotates a in place so that a[off] comes first.
func rotateLeft(a []dnswire.RR, off int) {
	slices.Reverse(a[:off])
	slices.Reverse(a[off:])
	slices.Reverse(a)
}
