// Package tcpsim implements a TCP state machine over the simulated
// network: three-way handshake with SYN retransmission and backoff,
// bidirectional in-order byte-stream delivery with cumulative ACKs,
// out-of-order reassembly, timeout and triple-duplicate-ACK retransmission
// with slow start and AIMD congestion control, and FIN/RST teardown.
//
// The failure surfaces match what the paper observes at clients
// (Section 2.1, category 2):
//
//   - "No connection": the SYN handshake fails — modelled by a down host
//     (silent drop), a refusing listener (RST), or path loss/outage.
//   - "No response": the handshake succeeds but the peer application never
//     writes — a stack-level concern only insofar as the connection stays
//     open; the HTTP layer times it out.
//   - "Partial response": the transfer starts and then the peer crashes
//     (RST), goes silent (idle timeout at the application), or the path
//     degrades.
package tcpsim

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"webfail/internal/netwire"
	"webfail/internal/simnet"
)

// Connection errors delivered through OnClose.
var (
	// ErrConnTimeout: the SYN handshake exhausted its retries.
	ErrConnTimeout = errors.New("tcpsim: connection timed out")
	// ErrConnRefused: the peer answered the SYN with RST.
	ErrConnRefused = errors.New("tcpsim: connection refused")
	// ErrReset: the established connection was reset by the peer.
	ErrReset = errors.New("tcpsim: connection reset by peer")
	// ErrAborted: the local side aborted the connection.
	ErrAborted = errors.New("tcpsim: connection aborted")
)

// HostStatus models machine-level reachability of the TCP stack.
type HostStatus uint8

// Stack-level statuses.
const (
	// HostUp processes segments normally.
	HostUp HostStatus = iota
	// HostDown drops every inbound segment silently, as a powered-off
	// or disconnected machine would.
	HostDown
)

// StatusFunc resolves stack health at an instant; nil means always up.
type StatusFunc func(now simnet.Time) HostStatus

const (
	// MSS is the maximum segment payload, the classic Ethernet-derived
	// value.
	MSS = 1460
	// recvWindow is the fixed advertised receive window.
	recvWindow = 65535
	// initialRTO is the RFC 1122 initial retransmission timeout, which
	// is also the SYN retry base used by the 2005-era stacks in the
	// study.
	initialRTO = 3 * time.Second
	// dataRTO is the fallback retransmission timeout before any RTT
	// sample exists; once the estimator warms up, RTO = SRTT+4*RTTVAR.
	dataRTO = time.Second
	// minRTO floors the adaptive timeout (RFC 6298 recommends 1 s; we
	// use the common implementation floor of 200 ms, which suits the
	// simulated paths).
	minRTO = 200 * time.Millisecond
	// maxRTO caps exponential backoff.
	maxRTO = 60 * time.Second
)

// synRetries is the number of SYN (re)transmissions before the connect
// fails: initial + 2 retries at 3 s and 6 s, i.e. failure is declared
// ~21 s after the first SYN — Windows XP semantics, matching the study's
// wget clients' observed behaviour.
const synRetries = 3

// timeWaitPeriod is how long a cleanly closed connection's tuple stays
// in TIME_WAIT (~2*MSL).
const timeWaitPeriod = 2 * time.Minute

// tombstone is one queued TIME_WAIT deadline.
type tombstone struct {
	key   connKey
	until simnet.Time
}

// Callbacks receives connection events. All callbacks are optional.
type Callbacks struct {
	// OnConnect fires when the handshake completes (client side) or the
	// connection is accepted (server side, at accept time).
	OnConnect func()
	// OnData delivers in-order application bytes.
	OnData func(data []byte)
	// OnClose fires exactly once when the connection ends: err is nil
	// for a clean FIN, or one of the package errors.
	OnClose func(err error)
}

// connKey identifies a connection within a stack. The tuple is packed into
// one word — local port in the top 16 bits, remote IPv4 in the middle 32,
// remote port in the low 16 — so the per-segment demultiplex is a single
// integer map probe instead of hashing a multi-word struct.
type connKey uint64

func packKey(localPort uint16, remote netip.Addr, remotePort uint16) connKey {
	return connKey(uint64(localPort)<<48 | uint64(simnet.AddrKey(remote))<<16 | uint64(remotePort))
}

// Listener accepts inbound connections on a port.
type Listener struct {
	// Accept is invoked with each newly established connection.
	Accept func(c *Conn)
	// Refuse, when non-nil and returning true, makes the listener
	// answer SYNs with RST — an application refusing service.
	Refuse func(now simnet.Time) bool
}

// Stack is the per-host TCP layer. It owns the host's TCP wildcard binding
// and demultiplexes segments to listeners and connections.
type Stack struct {
	host   *simnet.Host
	Status StatusFunc

	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	// timeWait holds tombstones for recently closed connections: stray
	// segments (a retransmitted FIN, the crossing final ACK of a
	// simultaneous close) are absorbed silently instead of drawing an
	// RST — the role of TIME_WAIT in real TCP.
	timeWait map[connKey]simnet.Time
	// twQueue[twHead:] lists the tombstones in the order teardown added
	// them, which is deadline order, so enterTimeWait finds the expired
	// ones at its head.
	twQueue []tombstone
	twHead  int
	isnSeed uint32
	// sendBufs pools connection send-buffer arrays (see Conn.growSndBuf).
	sendBufs [][]byte

	// Counters for tests and the harness.
	Accepted, Dialed, Resets uint64
}

// NewStack attaches a TCP stack to the host.
func NewStack(host *simnet.Host) *Stack {
	s := &Stack{
		host:      host,
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		timeWait:  make(map[connKey]simnet.Time),
		isnSeed:   0x1d00,
	}
	if err := host.Bind(simnet.TCP, 0, s.handle); err != nil {
		panic("tcpsim: stack bind: " + err.Error())
	}
	return s
}

// Host returns the underlying simulated host.
func (s *Stack) Host() *simnet.Host { return s.host }

// grabSendBuf returns a zero-length buffer with capacity at least need,
// reusing a released one when it is big enough.
func (s *Stack) grabSendBuf(need int) []byte {
	if n := len(s.sendBufs); n > 0 {
		b := s.sendBufs[n-1]
		s.sendBufs = s.sendBufs[:n-1]
		if cap(b) >= need {
			return b
		}
	}
	if need < 4096 {
		need = 4096
	}
	return make([]byte, 0, need)
}

func (s *Stack) releaseSendBuf(b []byte) {
	s.sendBufs = append(s.sendBufs, b[:0])
}

func (s *Stack) status() HostStatus {
	if s.Status == nil {
		return HostUp
	}
	return s.Status(s.host.Now())
}

// Listen installs a listener on port. Installing over an existing listener
// returns an error.
func (s *Stack) Listen(port uint16, l *Listener) error {
	if _, dup := s.listeners[port]; dup {
		return fmt.Errorf("tcpsim: port %d already listening on %s", port, s.host.Name)
	}
	s.listeners[port] = l
	return nil
}

// enterTimeWait tombstones key for timeWaitPeriod. It first drops every
// tombstone whose deadline has passed, which absorbs nothing and so
// changes no behaviour; a queued deadline that no longer matches the
// map's (handle removed the key, or a later close re-armed it) is
// skipped.
func (s *Stack) enterTimeWait(key connKey) {
	now := s.host.Now()
	for s.twHead < len(s.twQueue) && s.twQueue[s.twHead].until <= now {
		t := s.twQueue[s.twHead]
		if until, ok := s.timeWait[t.key]; ok && until == t.until {
			delete(s.timeWait, t.key)
		}
		s.twHead++
	}
	// Compact once the dropped head is at least half the queue, so the
	// array is reused and each entry is copied O(1) times.
	if s.twHead > 0 && 2*s.twHead >= len(s.twQueue) {
		n := copy(s.twQueue, s.twQueue[s.twHead:])
		s.twQueue, s.twHead = s.twQueue[:n], 0
	}
	until := now.Add(timeWaitPeriod)
	s.timeWait[key] = until
	s.twQueue = append(s.twQueue, tombstone{key: key, until: until})
}

// nextISN produces per-connection initial sequence numbers.
func (s *Stack) nextISN() uint32 {
	s.isnSeed = s.isnSeed*1664525 + 1013904223
	return s.isnSeed
}

// Dial opens a client connection to remote. The returned Conn is in
// SYN-SENT; OnConnect or OnClose will fire later.
func (s *Stack) Dial(remote netip.AddrPort, cb Callbacks) *Conn {
	port := s.host.EphemeralPort(simnet.TCP)
	// Reserve the port for the connection's lifetime so the wildcard
	// handler is the only TCP binding; reservation happens via the
	// conns map, not a host bind.
	c := &Conn{
		stack:     s,
		key:       packKey(port, remote.Addr(), remote.Port()),
		localPort: port,
		remote:    remote,
		cb:        cb,
		state:     stateSYNSent,
		iss:       s.nextISN(),
		cwnd:      2 * MSS,
		ssthresh:  recvWindow,
		peerWnd:   recvWindow,
	}
	c.rtoFn = c.onRTO
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.sndMax = c.iss
	s.conns[c.key] = c
	s.Dialed++
	c.sendSYN(0)
	return c
}

// handle demultiplexes an inbound TCP segment. Headers are decoded into
// stack-allocated structs and payload aliases pkt.Bytes, which the network
// recycles after this call returns — every consumer below copies what it
// keeps (ooo reassembly, application OnData handlers).
func (s *Stack) handle(pkt *simnet.Packet) {
	if s.status() == HostDown {
		return
	}
	var iph netwire.IPv4
	var hdr netwire.TCPHeader
	transport, err := netwire.DecodeIPv4Into(pkt.Bytes, &iph)
	if err != nil {
		return
	}
	payload, err := netwire.DecodeTCPInto(transport, &hdr)
	if err != nil {
		return
	}
	th := &hdr
	remote := netip.AddrPortFrom(iph.Src, th.SrcPort)
	key := packKey(th.DstPort, iph.Src, th.SrcPort)
	if c, ok := s.conns[key]; ok {
		c.segment(th, payload)
		return
	}
	// TIME_WAIT: absorb stragglers of recently closed connections
	// (except a fresh SYN, which may legitimately reuse the tuple).
	if until, ok := s.timeWait[key]; ok {
		if s.host.Now() < until && !(th.Flags&netwire.FlagSYN != 0 && th.Flags&netwire.FlagACK == 0) {
			return
		}
		delete(s.timeWait, key)
	}
	// No connection: maybe a listener (SYN) or a stray segment.
	if th.Flags&netwire.FlagSYN != 0 && th.Flags&netwire.FlagACK == 0 {
		if l, ok := s.listeners[th.DstPort]; ok {
			if l.Refuse != nil && l.Refuse(s.host.Now()) {
				s.sendRST(th.DstPort, remote, th.Seq+1)
				return
			}
			s.acceptSYN(key, remote, th, l)
			return
		}
		// Closed port on a live host: refuse.
		s.sendRST(th.DstPort, remote, th.Seq+1)
		return
	}
	// Non-SYN to an unknown connection: RST unless it is itself a RST.
	if th.Flags&netwire.FlagRST == 0 {
		s.sendRST(th.DstPort, remote, th.Seq+uint32(len(payload)))
	}
}

// acceptSYN creates the server-side connection and replies SYN-ACK.
func (s *Stack) acceptSYN(key connKey, remote netip.AddrPort, th *netwire.TCPHeader, l *Listener) {
	c := &Conn{
		stack:     s,
		key:       key,
		localPort: th.DstPort,
		remote:    remote,
		state:     stateSYNReceived,
		iss:       s.nextISN(),
		cwnd:      2 * MSS,
		ssthresh:  recvWindow,
		peerWnd:   th.Window,
		listener:  l,
	}
	c.rtoFn = c.onRTO
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.sndMax = c.iss
	c.rcvNxt = th.Seq + 1
	s.conns[key] = c
	c.transmit(netwire.FlagSYN|netwire.FlagACK, c.iss, c.rcvNxt, nil)
	// The SYN-ACK -> handshake-ACK exchange is the server's first RTT
	// sample point.
	c.sampleSeq = c.iss + 1
	c.sampleAt = s.host.Now()
	c.sampleValid = true
	c.sndNxt = c.iss + 1
	c.armRTO(initialRTO)
}

// sendRST emits a bare reset for a segment that has no connection.
func (s *Stack) sendRST(localPort uint16, remote netip.AddrPort, ack uint32) {
	s.Resets++
	h := netwire.TCPHeader{
		SrcPort: localPort,
		DstPort: remote.Port(),
		Seq:     0,
		Ack:     ack,
		Flags:   netwire.FlagRST | netwire.FlagACK,
	}
	s.emit(remote.Addr(), &h, nil)
}

// emit encodes and sends one TCP segment into a pooled packet buffer; the
// network recycles it once delivery or drop completes.
func (s *Stack) emit(dst netip.Addr, h *netwire.TCPHeader, payload []byte) {
	pkt := s.host.Network().AllocPacket()
	b, err := netwire.AppendTCPPacket(pkt.Bytes[:0], s.host.Addr, dst, h, payload)
	if err != nil {
		panic("tcpsim: encode tcp: " + err.Error())
	}
	pkt.Src, pkt.Dst, pkt.Proto, pkt.Bytes = s.host.Addr, dst, simnet.TCP, b
	s.host.Send(pkt)
}
