package trace

import (
	"sort"

	"webfail/internal/netwire"
)

// ConnClass is the trace-derived classification of one TCP connection,
// matching Section 2.1's TCP failure sub-classes plus the success case.
type ConnClass uint8

// Connection classes.
const (
	// ConnComplete: handshake, response data, and orderly close all
	// observed.
	ConnComplete ConnClass = iota
	// ConnNoConnection: SYNs observed, no SYN-ACK — a failed handshake
	// (or an RST answer to the SYN).
	ConnNoConnection
	// ConnNoResponse: handshake completed and the client sent its
	// request, but no response payload bytes arrived.
	ConnNoResponse
	// ConnPartialResponse: some response bytes arrived but the
	// connection ended without an orderly server close.
	ConnPartialResponse
)

func (c ConnClass) String() string {
	switch c {
	case ConnComplete:
		return "complete"
	case ConnNoConnection:
		return "no-connection"
	case ConnNoResponse:
		return "no-response"
	case ConnPartialResponse:
		return "partial-response"
	default:
		return "unknown"
	}
}

// FlowStats aggregates one TCP connection as seen in a trace, keyed by the
// client→server flow (client = sender of the first pure SYN).
type FlowStats struct {
	Flow Flow

	// Handshake observations.
	SYNs       int
	SYNACKSeen bool
	RSTToSYN   bool

	// Data observations, split by direction.
	ClientPayloadBytes int
	ServerPayloadBytes int
	ClientPackets      int
	ServerPackets      int

	// Retransmissions inferred from repeated sequence numbers carrying
	// payload (plus repeated SYNs), per direction. This is the paper's
	// packet-loss signal (Section 3.5 post-processing step b).
	ClientRetransmits int
	ServerRetransmits int

	// Teardown observations.
	ServerFIN bool
	ClientFIN bool
	RSTSeen   bool

	// seen tracks (seq) of payload-bearing segments per direction for
	// retransmission detection.
	seenClient map[uint32]bool
	seenServer map[uint32]bool
	synSeen    map[uint32]bool
}

// Classify reduces the flow observations to the paper's classes.
func (s *FlowStats) Classify() ConnClass {
	if !s.SYNACKSeen {
		return ConnNoConnection
	}
	if s.ServerPayloadBytes == 0 {
		return ConnNoResponse
	}
	if s.ServerFIN && !s.RSTSeen {
		return ConnComplete
	}
	return ConnPartialResponse
}

// LossRate estimates the connection's packet loss rate as retransmitted
// packets over total data packets, the standard trace-based estimator the
// paper references (and whose bias for failed connections it discusses in
// Section 4.1.3).
func (s *FlowStats) LossRate() float64 {
	total := s.ClientPackets + s.ServerPackets
	if total == 0 {
		return 0
	}
	return float64(s.ClientRetransmits+s.ServerRetransmits) / float64(total)
}

// AnalyzeTCP groups the packets of a capture into TCP connections and
// computes per-flow statistics. Packets that are not TCP or fail to decode
// are ignored.
func AnalyzeTCP(packets []*Packet) map[Flow]*FlowStats {
	flows := make(map[Flow]*FlowStats)
	for _, p := range packets {
		tcp := p.TCP
		if tcp == nil {
			continue
		}
		f, _ := p.TransportFlow()

		// Determine the canonical (client→server) flow for this
		// packet. A pure SYN defines the client side.
		var s *FlowStats
		if st, ok := flows[f]; ok {
			s = st
		} else if st, ok := flows[f.Reverse()]; ok {
			s = st
		} else {
			// First packet of the connection. If it is a pure
			// SYN, f is client→server; otherwise we fall back to
			// treating the first sender as the client.
			s = &FlowStats{
				Flow:       f,
				seenClient: make(map[uint32]bool),
				seenServer: make(map[uint32]bool),
				synSeen:    make(map[uint32]bool),
			}
			flows[f] = s
		}

		fromClient := f == s.Flow
		payload := p.Payload
		flags := tcp.Flags

		switch {
		case flags&netwire.FlagSYN != 0 && flags&netwire.FlagACK == 0:
			s.SYNs++
			if s.synSeen[tcp.Seq] {
				if fromClient {
					s.ClientRetransmits++
				} else {
					s.ServerRetransmits++
				}
			}
			s.synSeen[tcp.Seq] = true
		case flags&netwire.FlagSYN != 0 && flags&netwire.FlagACK != 0:
			s.SYNACKSeen = true
		}
		if flags&netwire.FlagRST != 0 {
			s.RSTSeen = true
			if !s.SYNACKSeen {
				s.RSTToSYN = true
			}
		}
		if flags&netwire.FlagFIN != 0 {
			if fromClient {
				s.ClientFIN = true
			} else {
				s.ServerFIN = true
			}
		}
		if len(payload) > 0 {
			if fromClient {
				s.ClientPackets++
				if s.seenClient[tcp.Seq] {
					s.ClientRetransmits++
				} else {
					s.seenClient[tcp.Seq] = true
					s.ClientPayloadBytes += len(payload)
				}
			} else {
				s.ServerPackets++
				if s.seenServer[tcp.Seq] {
					s.ServerRetransmits++
				} else {
					s.seenServer[tcp.Seq] = true
					s.ServerPayloadBytes += len(payload)
				}
			}
		}
	}
	return flows
}

// SortedFlows returns the flows of an analysis in deterministic order
// (by string form), for stable reporting.
func SortedFlows(m map[Flow]*FlowStats) []*FlowStats {
	out := make([]*FlowStats, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flow.String() < out[j].Flow.String() })
	return out
}
