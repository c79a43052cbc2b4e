// Package dnssim implements the simulated DNS system: authoritative
// servers arranged in a root → TLD → zone hierarchy, a caching recursive
// local DNS server (LDNS), a client stub resolver, and a dig-style
// iterative tracer — all exchanging real RFC 1035 messages over simulated
// UDP. The LDNS and the tracer resolve through one hierarchy walk, so
// the dig that sub-classifies a failed lookup asks the servers the LDNS
// asked, in the same order and under the same limits.
//
// The failure behaviours of each component are driven by externally
// supplied status functions, so the fault-injection layer can make an LDNS
// unreachable (producing the paper's dominant "LDNS timeout" class), an
// authoritative server unreachable ("non-LDNS timeout"), or misconfigured
// (SERVFAIL/NXDOMAIN "error response"), and the measurement harness
// observes exactly what a January-2005 wget + dig would have observed.
package dnssim

import (
	"net/netip"
	"time"

	"webfail/internal/dnswire"
	"webfail/internal/netwire"
	"webfail/internal/simnet"
)

// Port is the DNS server port.
const Port = 53

// exchanger issues DNS queries over simulated UDP and matches responses to
// outstanding queries by (port, message ID), with per-query timeouts. One
// exchanger serves a whole host (LDNS or client); it owns the host's
// ephemeral UDP port space.
type exchanger struct {
	host   *simnet.Host
	nextID uint16
	// q and resp are the scratch query and response: every query is
	// built in q, and every response decodes into resp, which is valid
	// only until the query's done callback returns.
	q, resp dnswire.Message
	enc     dnswire.Encoder
	dec     dnswire.Decoder
	// free pools finished pendingQuery states (with their cached method
	// closures) so the per-query hot path allocates nothing.
	free []*pendingQuery
}

func newExchanger(host *simnet.Host) *exchanger {
	return &exchanger{host: host}
}

// pendingQuery is the in-flight state of one query. onPacket/onTimeout are
// method values created once per pooled instance; they capture only the
// (stable) pointer, so reusing the instance reuses the closures.
type pendingQuery struct {
	e         *exchanger
	server    netip.Addr
	wantID    uint16
	port      uint16
	done      func(*dnswire.Message)
	timer     simnet.TimerHandle
	finished  bool
	onPacket  func(*simnet.Packet)
	onTimeout func()
}

func (pq *pendingQuery) finish(m *dnswire.Message) {
	if pq.finished {
		return
	}
	pq.finished = true
	pq.timer.Stop()
	pq.e.host.Unbind(simnet.UDP, pq.port)
	done := pq.done
	pq.done = nil
	pq.e.free = append(pq.e.free, pq)
	done(m)
}

func (pq *pendingQuery) handlePacket(pkt *simnet.Packet) {
	if pq.finished {
		return
	}
	body, _, ok := udpPayload(pkt)
	if !ok {
		return
	}
	m := &pq.e.resp
	if err := pq.e.dec.Decode(body, m); err != nil || !m.Header.Response || m.Header.ID != pq.wantID {
		return
	}
	if pkt.Src != pq.server {
		return
	}
	pq.finish(m)
}

func (pq *pendingQuery) handleTimeout() { pq.finish(nil) }

// query sends an A query for name to server and calls done exactly once:
// with the decoded response, or with nil after the timeout. The response
// is the exchanger's scratch message, valid only until done returns. The
// ephemeral port is released either way. Malformed or mismatched
// responses are ignored (they cannot complete the query), exactly as a
// real resolver ignores spoofed noise.
func (e *exchanger) query(server netip.Addr, name string, recursionDesired bool, timeout time.Duration, done func(*dnswire.Message)) {
	e.nextID++
	e.q.SetQuery(e.nextID, name, dnswire.TypeA, recursionDesired)
	payload, err := e.enc.Encode(&e.q)
	if err != nil {
		// Queries are built by this package; an encode failure is a
		// bug, not a network condition.
		panic("dnssim: bad query: " + err.Error())
	}

	var pq *pendingQuery
	if n := len(e.free); n > 0 {
		pq = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		pq = &pendingQuery{e: e}
		pq.onPacket = pq.handlePacket
		pq.onTimeout = pq.handleTimeout
	}
	pq.server = server
	pq.wantID = e.nextID
	pq.port = e.host.EphemeralPort(simnet.UDP)
	pq.done = done
	pq.finished = false

	if err := e.host.Bind(simnet.UDP, pq.port, pq.onPacket); err != nil {
		panic("dnssim: ephemeral bind: " + err.Error())
	}
	pq.timer = e.host.Network().Sched.AfterHandle(timeout, pq.onTimeout)
	sendUDP(e.host, pq.port, server, Port, payload)
}

// sendUDP wraps a DNS payload in UDP and IPv4 and transmits it through a
// pooled packet buffer (recycled by the network after delivery or drop).
// The payload is copied, so the caller may reuse it once sendUDP returns.
func sendUDP(host *simnet.Host, srcPort uint16, dst netip.Addr, dstPort uint16, payload []byte) {
	pkt := host.Network().AllocPacket()
	b, err := netwire.AppendUDPPacket(pkt.Bytes[:0], host.Addr, dst,
		&netwire.UDPHeader{SrcPort: srcPort, DstPort: dstPort}, payload)
	if err != nil {
		panic("dnssim: udp encode: " + err.Error())
	}
	pkt.Src, pkt.Dst, pkt.Proto, pkt.Bytes = host.Addr, dst, simnet.UDP, b
	host.Send(pkt)
}

// replyUDP encodes a DNS response with the caller's encoder and sends it
// back to the source of a received packet.
func replyUDP(host *simnet.Host, enc *dnswire.Encoder, to netip.Addr, toPort uint16, m *dnswire.Message) {
	payload, err := enc.Encode(m)
	if err != nil {
		panic("dnssim: response encode: " + err.Error())
	}
	sendUDP(host, Port, to, toPort, payload)
}

// udpPayload returns the UDP payload and source port of a received
// packet, with ok=false for anything malformed.
func udpPayload(pkt *simnet.Packet) (body []byte, srcPort uint16, ok bool) {
	var iph netwire.IPv4
	var uh netwire.UDPHeader
	transport, err := netwire.DecodeIPv4Into(pkt.Bytes, &iph)
	if err != nil {
		return nil, 0, false
	}
	body, err = netwire.DecodeUDPInto(transport, &uh)
	return body, uh.SrcPort, err == nil
}

// decodeQuery decodes the DNS query in a received packet into q and
// returns the client's source port, with ok=false for anything malformed.
func decodeQuery(pkt *simnet.Packet, dec *dnswire.Decoder, q *dnswire.Message) (srcPort uint16, ok bool) {
	body, srcPort, ok := udpPayload(pkt)
	if !ok {
		return 0, false
	}
	if err := dec.Decode(body, q); err != nil || q.Header.Response || len(q.Questions) == 0 {
		return 0, false
	}
	return srcPort, true
}
