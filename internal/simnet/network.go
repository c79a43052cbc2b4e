package simnet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"
)

// Proto identifies the transport protocol of a simulated packet.
type Proto uint8

// Transport protocols carried by the simulator, using the IANA numbers so
// that captured packets decode with standard tooling conventions.
const (
	TCP  Proto = 6
	UDP  Proto = 17
	ICMP Proto = 1
)

func (p Proto) String() string {
	switch p {
	case TCP:
		return "TCP"
	case UDP:
		return "UDP"
	case ICMP:
		return "ICMP"
	default:
		return fmt.Sprintf("Proto(%d)", uint8(p))
	}
}

// Packet is a simulated IP datagram. Bytes holds the full on-the-wire
// encoding starting at the IPv4 header; Src/Dst/Proto duplicate header
// fields for routing without re-parsing. The trace package decodes Bytes.
//
// Packets obtained from Network.AllocPacket are owned by the network once
// passed to Host.Send: their buffers are recycled as soon as delivery (or
// drop) completes, which is why handlers and captures must copy anything
// they retain. Caller-constructed packets are never recycled.
type Packet struct {
	Src, Dst netip.Addr
	Proto    Proto
	Bytes    []byte

	pooled bool
}

// PathState describes the condition of the network path between two hosts
// at a given instant. Fault injectors return Down or elevated Loss to model
// outages; the default path is clean.
type PathState struct {
	Latency time.Duration // one-way propagation + queueing delay
	Loss    float64       // independent drop probability per packet, 0..1
	Down    bool          // hard outage: every packet dropped
}

// PathFunc resolves the path condition from host src to host dst at time
// now. dst is nil when no host holds the packet's destination address; the
// network drops such a packet after consulting the model, so the model's
// verdict and the loss draw happen for every packet sent. Implementations
// must be deterministic in their inputs; randomness belongs to the
// Network's seeded RNG, which applies Loss.
type PathFunc func(src, dst *Host, now Time) PathState

// Handler consumes a packet delivered to a bound (proto, port).
type Handler func(pkt *Packet)

// CaptureFunc observes packets at a host, tcpdump-style. dir is "in" or
// "out"; the callee must not retain pkt.Bytes past the call unless it
// copies.
type CaptureFunc func(now Time, dir Direction, pkt *Packet)

// Direction tags captured packets.
type Direction uint8

// Packet capture directions.
const (
	In Direction = iota
	Out
)

func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// DefaultPath is used when no PathFunc is installed: 40 ms one-way latency,
// lossless. 40 ms approximates a transcontinental US path, the common case
// for the paper's mostly-US client and server sets.
var DefaultPath = PathState{Latency: 40 * time.Millisecond}

// Network ties the scheduler, hosts, and path model together.
type Network struct {
	Sched *Scheduler
	rng   *rand.Rand
	path  PathFunc
	hosts map[uint32]*Host // by packed IPv4 address (AddrKey)
	pool  []*Packet

	// RNGFor, when set, selects the loss-draw RNG by the scheduler's
	// current causal context instead of the network-wide seeded RNG. The
	// sharded packet runner installs per-client streams here so that a
	// packet's drop fate depends only on its own transaction's history,
	// not on how clients are partitioned across shards.
	RNGFor func(ctx int32) *rand.Rand

	// Delivered and Dropped count packets for observability and tests.
	Delivered, Dropped uint64
}

// NewNetwork creates an empty network with the given deterministic seed.
func NewNetwork(seed int64) *Network {
	return &Network{
		Sched: &Scheduler{},
		rng:   rand.New(rand.NewSource(seed)),
		hosts: make(map[uint32]*Host),
	}
}

// SetPathFunc installs the path condition model. A nil PathFunc restores
// DefaultPath behaviour.
func (n *Network) SetPathFunc(f PathFunc) { n.path = f }

// Host returns the host bound to addr, or nil.
func (n *Network) Host(addr netip.Addr) *Host {
	if !addr.Is4() {
		return nil
	}
	return n.hosts[AddrKey(addr)]
}

// AddrKey packs an IPv4 address into a 4-byte map key, so a per-packet
// lookup by address hashes 4 bytes instead of a 24-byte netip.Addr. It
// panics on an address that is not IPv4; every host address is IPv4.
func AddrKey(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// AddHost registers a new host at addr; its ID is the number of hosts
// added before it. It panics when the address is already taken or is not
// IPv4 (the only family the wire format encodes), since topologies are
// static configuration.
func (n *Network) AddHost(name string, addr netip.Addr) *Host {
	if !addr.Is4() {
		panic(fmt.Sprintf("simnet: host address %v is not IPv4", addr))
	}
	k := AddrKey(addr)
	if _, dup := n.hosts[k]; dup {
		panic(fmt.Sprintf("simnet: duplicate host address %v", addr))
	}
	h := &Host{
		Name:     name,
		Addr:     addr,
		ID:       len(n.hosts),
		net:      n,
		handlers: make(map[uint32]Handler),
	}
	n.hosts[k] = h
	return h
}

// AllocPacket returns a packet from the network's buffer pool with empty
// Bytes (capacity retained across uses). The packet must be filled and
// passed to Host.Send, which returns it to the pool after delivery.
func (n *Network) AllocPacket() *Packet {
	if len(n.pool) > 0 {
		p := n.pool[len(n.pool)-1]
		n.pool = n.pool[:len(n.pool)-1]
		p.Bytes = p.Bytes[:0]
		return p
	}
	return &Packet{pooled: true}
}

// freePacket returns a pooled packet's buffer for reuse. Packets built by
// callers (tests, external tools) pass through untouched.
func (n *Network) freePacket(p *Packet) {
	if p.pooled {
		n.pool = append(n.pool, p)
	}
}

// send injects a packet from a host into the network. The destination
// host is looked up once, and the path model sees both ends. Delivery (or
// drop) is decided immediately; delivery is scheduled after the path
// latency.
func (n *Network) send(from *Host, pkt *Packet) {
	dst := n.Host(pkt.Dst)
	ps := DefaultPath
	if n.path != nil {
		ps = n.path(from, dst, n.Sched.Now())
	}
	if ps.Down || (ps.Loss > 0 && n.lossRNG().Float64() < ps.Loss) || dst == nil {
		n.Dropped++
		n.freePacket(pkt)
		return
	}
	lat := ps.Latency
	if lat <= 0 {
		lat = time.Microsecond
	}
	n.Sched.schedulePacket(lat, dst, pkt)
}

func (n *Network) lossRNG() *rand.Rand {
	if n.RNGFor != nil {
		return n.RNGFor(n.Sched.Context())
	}
	return n.rng
}

// receive completes a scheduled delivery: count, dispatch, recycle.
func (h *Host) receive(pkt *Packet) {
	h.net.Delivered++
	h.deliver(pkt)
	h.net.freePacket(pkt)
}

// bindKey packs a transport endpoint (proto, port) into a 4-byte
// binding-table key.
func bindKey(proto Proto, port uint16) uint32 { return uint32(proto)<<16 | uint32(port) }

// Host is a simulated end system with transport bindings and optional
// packet capture.
type Host struct {
	Name string
	Addr netip.Addr
	// ID is the host's dense index in its network: hosts are numbered
	// 0, 1, 2, … in AddHost order, so a path model can keep per-host
	// state in a slice.
	ID int

	net      *Network
	handlers map[uint32]Handler
	capture  CaptureFunc
	nextPort uint16
}

// Network returns the network this host is attached to.
func (h *Host) Network() *Network { return h.net }

// Now returns the current simulated time, for convenience in protocol code.
func (h *Host) Now() Time { return h.net.Sched.Now() }

// Bind registers a handler for (proto, port). Binding an occupied port
// returns an error; protocol stacks own their port spaces.
func (h *Host) Bind(proto Proto, port uint16, fn Handler) error {
	k := bindKey(proto, port)
	if _, dup := h.handlers[k]; dup {
		return fmt.Errorf("simnet: %s port %d already bound on %s", proto, port, h.Name)
	}
	h.handlers[k] = fn
	return nil
}

// Unbind releases a (proto, port) binding. Unbinding a free port is a no-op.
func (h *Host) Unbind(proto Proto, port uint16) {
	delete(h.handlers, bindKey(proto, port))
}

// EphemeralPort allocates a fresh high port for client connections. The
// allocator wraps within 49152..65535 (the IANA dynamic range); collisions
// with live bindings are skipped.
func (h *Host) EphemeralPort(proto Proto) uint16 {
	const lo, hi = 49152, 65535
	if h.nextPort < lo {
		h.nextPort = lo
	}
	for i := 0; i < hi-lo+1; i++ {
		p := h.nextPort
		h.nextPort++
		if h.nextPort > hi || h.nextPort == 0 {
			h.nextPort = lo
		}
		if _, used := h.handlers[bindKey(proto, p)]; !used {
			return p
		}
	}
	panic("simnet: ephemeral port space exhausted")
}

// SetCapture installs a tcpdump-style packet tap on this host. Pass nil to
// remove. Both inbound and outbound packets are observed.
func (h *Host) SetCapture(fn CaptureFunc) { h.capture = fn }

// Send transmits a packet whose source must be this host.
func (h *Host) Send(pkt *Packet) {
	if pkt.Src != h.Addr {
		panic(fmt.Sprintf("simnet: host %s sending with source %v", h.Name, pkt.Src))
	}
	if h.capture != nil {
		h.capture(h.Now(), Out, pkt)
	}
	h.net.send(h, pkt)
}

// deliver dispatches an arrived packet to the bound handler. Packets to
// unbound TCP ports are silently dropped here; connection-refused behaviour
// (RST) is implemented by the TCP layer's listener dispatch so that hosts
// without a TCP stack stay silent, like a firewalled host.
func (h *Host) deliver(pkt *Packet) {
	if h.capture != nil {
		h.capture(h.Now(), In, pkt)
	}
	port, ok := destPort(pkt)
	if !ok {
		return
	}
	if fn := h.handlers[bindKey(pkt.Proto, port)]; fn != nil {
		fn(pkt)
		return
	}
	// Wildcard handler on port 0 receives all traffic for the protocol
	// that no specific binding claimed (used by the TCP demultiplexer).
	if fn := h.handlers[bindKey(pkt.Proto, 0)]; fn != nil {
		fn(pkt)
	}
}

// destPort extracts the destination port from the encoded packet bytes.
// The layout mirrors real IPv4: the transport header follows the 20-byte
// IP header and both TCP and UDP place the destination port at offset 2.
func destPort(pkt *Packet) (uint16, bool) {
	const ipHeaderLen = 20
	b := pkt.Bytes
	if len(b) < ipHeaderLen+4 {
		return 0, false
	}
	t := b[ipHeaderLen:]
	return uint16(t[2])<<8 | uint16(t[3]), true
}
