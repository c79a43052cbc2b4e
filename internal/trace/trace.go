// Package trace implements packet capture and analysis for the simulated
// measurement stack: an in-memory tap that keeps copies of a host's
// packets, a decoder of the raw bytes that simnet hosts exchange, per-flow
// TCP statistics, and the post-processing the paper applies to its
// tcpdump/windump traces (Section 3.5): determining the cause of a
// connection failure (no connection / no response / partial response)
// and inferring packet loss from retransmissions.
//
// NewPacket decodes a captured packet through netwire's decoders and
// checksum checks into a flat Packet: its IPv4 header, its TCP or UDP
// header, its payload and the decode error. Flow and Endpoint values are
// comparable and usable as map keys. measure.RunPacketWithCapture taps
// the monitored clients and hands back AnalyzeTCP's per-flow statistics.
package trace

import (
	"fmt"
	"net/netip"

	"webfail/internal/netwire"
	"webfail/internal/simnet"
)

// Packet is one captured packet, decoded. Decoding stops at the first
// header that fails to parse or verify, keeps the headers outside it and
// records why in Err.
type Packet struct {
	Time simnet.Time
	Dir  simnet.Direction

	// IPv4 is the network header, nil when it did not decode.
	IPv4 *netwire.IPv4
	// TCP and UDP are the transport header: at most one is set, the one
	// IPv4.Protocol names, once it decoded.
	TCP *netwire.TCPHeader
	UDP *netwire.UDPHeader
	// Payload is what follows the last header decoded: the application
	// bytes, or the whole IPv4 payload of another protocol. It is nil
	// when empty or when decoding failed.
	Payload []byte
	// Err is the decode error, nil when every header decoded.
	Err error
}

// NewPacket decodes raw bytes, starting at the IPv4 header, verifying
// every checksum.
func NewPacket(at simnet.Time, dir simnet.Direction, data []byte) *Packet {
	p := &Packet{Time: at, Dir: dir}
	var ip netwire.IPv4
	transport, err := netwire.DecodeIPv4Into(data, &ip)
	if err == nil {
		err = netwire.CheckIPv4(data)
	}
	if p.Err = err; err != nil {
		return p
	}
	p.IPv4 = &ip
	payload := transport
	switch ip.Protocol {
	case uint8(simnet.TCP):
		var h netwire.TCPHeader
		if payload, err = netwire.DecodeTCPInto(transport, &h); err == nil {
			err = netwire.CheckTCP(transport, ip.Src, ip.Dst)
		}
		if err == nil {
			p.TCP = &h
		}
	case uint8(simnet.UDP):
		var h netwire.UDPHeader
		if payload, err = netwire.DecodeUDPInto(transport, &h); err == nil {
			err = netwire.CheckUDP(transport[:h.Length], ip.Src, ip.Dst)
		}
		if err == nil {
			p.UDP = &h
		}
	}
	if p.Err = err; err == nil && len(payload) > 0 {
		p.Payload = payload
	}
	return p
}

// Endpoint is a hashable (address, port) pair, usable as a map key.
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("%v:%d", e.Addr, e.Port) }

// Flow is a directed (src, dst) endpoint pair.
type Flow struct {
	Src, Dst Endpoint
}

// Reverse returns the opposite direction flow.
func (f Flow) Reverse() Flow { return Flow{Src: f.Dst, Dst: f.Src} }

func (f Flow) String() string { return f.Src.String() + "->" + f.Dst.String() }

// TransportFlow extracts the transport-layer flow of a packet; ok is false
// for non-TCP/UDP or undecodable packets.
func (p *Packet) TransportFlow() (Flow, bool) {
	var src, dst uint16
	switch {
	case p.TCP != nil:
		src, dst = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		src, dst = p.UDP.SrcPort, p.UDP.DstPort
	default:
		return Flow{}, false
	}
	return Flow{Src: Endpoint{Addr: p.IPv4.Src, Port: src}, Dst: Endpoint{Addr: p.IPv4.Dst, Port: dst}}, true
}

// rawRecord is one captured packet before decoding.
type rawRecord struct {
	at   simnet.Time
	dir  simnet.Direction
	data []byte
}

// Capture is a tcpdump-style packet tap storing copies of every packet a
// host sends or receives.
type Capture struct {
	records []rawRecord
}

// Attach installs the capture on a host. Only one capture can be attached
// to a host at a time (it replaces any existing tap).
func (c *Capture) Attach(h *simnet.Host) {
	h.SetCapture(func(now simnet.Time, dir simnet.Direction, pkt *simnet.Packet) {
		data := make([]byte, len(pkt.Bytes))
		copy(data, pkt.Bytes)
		c.records = append(c.records, rawRecord{at: now, dir: dir, data: data})
	})
}

// Packets decodes and returns all captured packets.
func (c *Capture) Packets() []*Packet {
	out := make([]*Packet, 0, len(c.records))
	for _, r := range c.records {
		out = append(out, NewPacket(r.at, r.dir, r.data))
	}
	return out
}
