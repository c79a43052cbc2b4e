// Package trace implements packet capture and analysis for the simulated
// measurement stack: an in-memory tap that keeps copies of a host's
// packets, a gopacket-style layered decoder over the raw bytes that
// simnet hosts exchange, per-flow TCP statistics, and the
// post-processing the paper applies to its tcpdump/windump traces
// (Section 3.5): determining the cause of a connection failure (no
// connection / no response / partial response) and inferring packet loss
// from retransmissions.
//
// The decoding API follows the gopacket idiom: a Packet is decoded into a
// stack of Layers which can be fetched by LayerType, and Flow and
// Endpoint values are comparable and usable as map keys.
// measure.RunPacketWithCapture taps the monitored clients and hands back
// AnalyzeTCP's per-flow statistics.
package trace

import (
	"fmt"
	"net/netip"

	"webfail/internal/netwire"
	"webfail/internal/simnet"
)

// LayerType identifies a protocol layer within a decoded packet.
type LayerType uint8

// Layer types known to the decoder.
const (
	LayerTypeIPv4 LayerType = iota + 1
	LayerTypeTCP
	LayerTypeUDP
	LayerTypePayload
)

func (t LayerType) String() string {
	switch t {
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypePayload:
		return "Payload"
	default:
		return fmt.Sprintf("LayerType(%d)", uint8(t))
	}
}

// Layer is one decoded protocol layer.
type Layer interface {
	LayerType() LayerType
}

// IPv4Layer wraps the decoded IPv4 header.
type IPv4Layer struct{ netwire.IPv4 }

// LayerType implements Layer.
func (*IPv4Layer) LayerType() LayerType { return LayerTypeIPv4 }

// TCPLayer wraps the decoded TCP header.
type TCPLayer struct{ netwire.TCPHeader }

// LayerType implements Layer.
func (*TCPLayer) LayerType() LayerType { return LayerTypeTCP }

// UDPLayer wraps the decoded UDP header.
type UDPLayer struct{ netwire.UDPHeader }

// LayerType implements Layer.
func (*UDPLayer) LayerType() LayerType { return LayerTypeUDP }

// PayloadLayer holds the application bytes.
type PayloadLayer struct{ Data []byte }

// LayerType implements Layer.
func (*PayloadLayer) LayerType() LayerType { return LayerTypePayload }

// Packet is one captured, decoded packet.
type Packet struct {
	Time simnet.Time
	Dir  simnet.Direction

	layers []Layer
	err    error
}

// NewPacket decodes raw bytes (starting at the IPv4 header) into a layered
// packet. Decoding failures do not return an error here — like gopacket,
// successfully decoded outer layers are kept and the failure is exposed
// via ErrorLayer.
func NewPacket(at simnet.Time, dir simnet.Direction, data []byte) *Packet {
	p := &Packet{Time: at, Dir: dir}
	iph, transport, err := netwire.DecodeIPv4(data)
	if err != nil {
		p.err = err
		return p
	}
	p.layers = append(p.layers, &IPv4Layer{*iph})
	switch iph.Protocol {
	case uint8(simnet.TCP):
		th, payload, err := netwire.DecodeTCP(transport, iph.Src, iph.Dst)
		if err != nil {
			p.err = err
			return p
		}
		p.layers = append(p.layers, &TCPLayer{*th})
		if len(payload) > 0 {
			p.layers = append(p.layers, &PayloadLayer{Data: payload})
		}
	case uint8(simnet.UDP):
		uh, payload, err := netwire.DecodeUDP(transport, iph.Src, iph.Dst)
		if err != nil {
			p.err = err
			return p
		}
		p.layers = append(p.layers, &UDPLayer{*uh})
		if len(payload) > 0 {
			p.layers = append(p.layers, &PayloadLayer{Data: payload})
		}
	default:
		if len(transport) > 0 {
			p.layers = append(p.layers, &PayloadLayer{Data: transport})
		}
	}
	return p
}

// Layer returns the first layer of the given type, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// Layers returns all decoded layers in order.
func (p *Packet) Layers() []Layer { return p.layers }

// ErrorLayer returns the decode error, if any layer failed to parse.
func (p *Packet) ErrorLayer() error { return p.err }

// IPv4 is a convenience accessor.
func (p *Packet) IPv4() *IPv4Layer {
	if l, ok := p.Layer(LayerTypeIPv4).(*IPv4Layer); ok {
		return l
	}
	return nil
}

// TCP is a convenience accessor.
func (p *Packet) TCP() *TCPLayer {
	if l, ok := p.Layer(LayerTypeTCP).(*TCPLayer); ok {
		return l
	}
	return nil
}

// UDP is a convenience accessor.
func (p *Packet) UDP() *UDPLayer {
	if l, ok := p.Layer(LayerTypeUDP).(*UDPLayer); ok {
		return l
	}
	return nil
}

// Payload returns the application bytes, or nil.
func (p *Packet) Payload() []byte {
	if l, ok := p.Layer(LayerTypePayload).(*PayloadLayer); ok {
		return l.Data
	}
	return nil
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
	ip := p.IPv4()
	if ip == nil {
		return Flow{}, false
	}
	if tcp := p.TCP(); tcp != nil {
		return Flow{
			Src: Endpoint{Addr: ip.Src, Port: tcp.SrcPort},
			Dst: Endpoint{Addr: ip.Dst, Port: tcp.DstPort},
		}, true
	}
	if udp := p.UDP(); udp != nil {
		return Flow{
			Src: Endpoint{Addr: ip.Src, Port: udp.SrcPort},
			Dst: Endpoint{Addr: ip.Dst, Port: udp.DstPort},
		}, true
	}
	return Flow{}, false
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
