// Package netwire implements binary encoding and decoding of the simplified
// IPv4, TCP, and UDP headers that simulated packets carry on the wire.
//
// The layouts are the real RFC 791/793/768 layouts (fixed 20-byte IPv4
// header without options, 20-byte TCP header without options, 8-byte UDP
// header) so that captured traces are honest byte strings. Each header
// has one encoder, one decoder and one checksum check: AppendTCPPacket
// and AppendUDPPacket write a whole packet, both checksums filled in with
// the standard Internet one's complement sum; DecodeIPv4Into,
// DecodeTCPInto and DecodeUDPInto read one header each without
// allocating and without verifying its checksum, which the simulator's
// stacks trust; and CheckIPv4, CheckTCP and CheckUDP verify the
// checksums where the bytes are not trusted, as the trace package's
// capture decoder does. Every packet sent is summed, so the sum adds the
// bytes as 64-bit words and adds their carries back (RFC 1071 §2): the
// same checksums as 16-bit accumulation, from a quarter of the additions.
package netwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// Header sizes in bytes.
const (
	IPv4HeaderLen = 20
	TCPHeaderLen  = 20
	UDPHeaderLen  = 8
)

// IPv4 protocol numbers.
const (
	protoTCP = 6
	protoUDP = 17
)

// Errors returned by decoders.
var (
	ErrTruncated   = errors.New("netwire: truncated packet")
	ErrBadVersion  = errors.New("netwire: not an IPv4 packet")
	ErrBadChecksum = errors.New("netwire: bad checksum")
	ErrBadIHL      = errors.New("netwire: bad IPv4 header length")
)

// TCP flag bits, in their RFC 793 positions.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// FlagString renders TCP flags in tcpdump style, e.g. "SA" for SYN|ACK.
func FlagString(flags uint8) string {
	names := []struct {
		bit uint8
		ch  byte
	}{
		{FlagSYN, 'S'}, {FlagFIN, 'F'}, {FlagRST, 'R'}, {FlagPSH, 'P'}, {FlagACK, 'A'},
	}
	out := make([]byte, 0, 5)
	for _, n := range names {
		if flags&n.bit != 0 {
			out = append(out, n.ch)
		}
	}
	if len(out) == 0 {
		return "."
	}
	return string(out)
}

// IPv4 is a decoded IPv4 header (no options).
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr
}

// TCPHeader is a decoded TCP header (no options).
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// UDPHeader is a decoded UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16
}

// checksum computes the Internet checksum (RFC 1071) over b.
func checksum(b []byte) uint16 {
	return foldSum(onesSum(b))
}

// onesSum returns a partly folded one's-complement sum of b interpreted
// as big-endian 16-bit words, below 2^34. It adds 64-bit words, four per
// step, and adds the carries out of bit 63 back in (RFC 1071 §2's
// end-around carry on wider words: 2^16 ≡ 1 modulo 2^16-1, so a 64-bit
// word counts as the sum of its four 16-bit words, and folding gives the
// same checksum as 16-bit accumulation).
func onesSum(b []byte) uint64 {
	var sum, carry uint64
	for len(b) >= 32 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[8:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[16:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[24:]), carry)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
		b = b[8:]
	}
	tail := carry
	if len(b) >= 4 {
		tail += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0]) << 8
	}
	return sum>>32 + uint64(uint32(sum)) + tail
}

// foldSum reduces an unfolded one's-complement sum to the complemented
// 16-bit checksum.
func foldSum(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// AppendTCPPacket appends to dst an IPv4 packet carrying a TCP segment
// with header h and payload, checksums filled in, and returns the
// extended slice.
func AppendTCPPacket(dst []byte, src, dstAddr netip.Addr, h *TCPHeader, payload []byte) ([]byte, error) {
	dst, t, err := appendIPv4(dst, src, dstAddr, protoTCP, TCPHeaderLen, payload)
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint16(t[0:], h.SrcPort)
	binary.BigEndian.PutUint16(t[2:], h.DstPort)
	binary.BigEndian.PutUint32(t[4:], h.Seq)
	binary.BigEndian.PutUint32(t[8:], h.Ack)
	t[12] = 5 << 4 // data offset: 5 words
	t[13] = h.Flags
	binary.BigEndian.PutUint16(t[14:], h.Window)
	binary.BigEndian.PutUint16(t[16:], pseudoChecksum(src, dstAddr, protoTCP, t))
	return dst, nil
}

// AppendUDPPacket appends to dst an IPv4 packet carrying a UDP datagram
// with the ports of h and payload, checksums filled in, and returns the
// extended slice.
func AppendUDPPacket(dst []byte, src, dstAddr netip.Addr, h *UDPHeader, payload []byte) ([]byte, error) {
	dst, t, err := appendIPv4(dst, src, dstAddr, protoUDP, UDPHeaderLen, payload)
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint16(t[0:], h.SrcPort)
	binary.BigEndian.PutUint16(t[2:], h.DstPort)
	binary.BigEndian.PutUint16(t[4:], uint16(len(t)))
	binary.BigEndian.PutUint16(t[6:], pseudoChecksum(src, dstAddr, protoUDP, t))
	return dst, nil
}

// appendIPv4 appends to dst an IPv4 header, a zeroed transport header of
// hdrLen bytes and payload, and returns the extended slice and its
// transport part. The IPv4 header carries TOS 0, ID 0, no fragmentation
// and TTL 64, as every packet the simulator sends does.
func appendIPv4(dst []byte, src, dstAddr netip.Addr, proto uint8, hdrLen int, payload []byte) ([]byte, []byte, error) {
	if !src.Is4() || !dstAddr.Is4() {
		return dst, nil, ErrBadVersion
	}
	total := IPv4HeaderLen + hdrLen + len(payload)
	if total > 0xffff {
		return dst, nil, fmt.Errorf("netwire: packet too large (%d bytes)", total)
	}
	// Appending a slice of a stack array, not a variable-length make,
	// keeps the headers off the heap in every build mode: the race
	// detector's instrumentation turns off the compiler's in-place
	// append of make.
	var zeros [IPv4HeaderLen + TCPHeaderLen]byte
	off := len(dst)
	dst = append(dst, zeros[:IPv4HeaderLen+hdrLen]...)
	dst = append(dst, payload...)
	b := dst[off:]
	b[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(b[2:], uint16(total))
	b[8] = 64
	b[9] = proto
	src4, dst4 := src.As4(), dstAddr.As4()
	copy(b[12:16], src4[:])
	copy(b[16:20], dst4[:])
	binary.BigEndian.PutUint16(b[10:], checksum(b[:IPv4HeaderLen]))
	return dst, b[IPv4HeaderLen:], nil
}

// DecodeIPv4Into parses the IPv4 header at the front of b into h without
// allocating, and returns the payload (sliced, not copied). It does not
// verify the header checksum: the simulator's protocol stacks trust
// their own encoder, and a capture decoder calls CheckIPv4.
func DecodeIPv4Into(b []byte, h *IPv4) ([]byte, error) {
	if len(b) < IPv4HeaderLen {
		return nil, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	if b[0]&0x0f != 5 {
		return nil, ErrBadIHL
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total < IPv4HeaderLen || total > len(b) {
		return nil, ErrTruncated
	}
	h.TOS = b[1]
	h.TotalLen = uint16(total)
	h.ID = binary.BigEndian.Uint16(b[4:])
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Src = netip.AddrFrom4([4]byte(b[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	return b[IPv4HeaderLen:total], nil
}

// DecodeTCPInto parses the TCP header at the front of an IPv4 payload
// into h without allocating, and returns the TCP payload. Like
// DecodeIPv4Into it does not verify the checksum; CheckTCP does.
func DecodeTCPInto(b []byte, h *TCPHeader) ([]byte, error) {
	if len(b) < TCPHeaderLen {
		return nil, ErrTruncated
	}
	dataOff := int(b[12]>>4) * 4
	if dataOff < TCPHeaderLen || dataOff > len(b) {
		return nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Seq = binary.BigEndian.Uint32(b[4:])
	h.Ack = binary.BigEndian.Uint32(b[8:])
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:])
	return b[dataOff:], nil
}

// DecodeUDPInto parses the UDP header at the front of an IPv4 payload
// into h without allocating, and returns the UDP payload. Like
// DecodeIPv4Into it does not verify the checksum; CheckUDP does.
func DecodeUDPInto(b []byte, h *UDPHeader) ([]byte, error) {
	if len(b) < UDPHeaderLen {
		return nil, ErrTruncated
	}
	length := int(binary.BigEndian.Uint16(b[4:]))
	if length < UDPHeaderLen || length > len(b) {
		return nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Length = uint16(length)
	return b[UDPHeaderLen:length], nil
}

// CheckIPv4 verifies the checksum of the IPv4 header at the front of b.
func CheckIPv4(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return ErrTruncated
	}
	if checksum(b[:IPv4HeaderLen]) != 0 {
		return fmt.Errorf("%w (IPv4 header)", ErrBadChecksum)
	}
	return nil
}

// CheckTCP verifies the checksum of TCP segment seg (header and
// payload) sent from src to dst.
func CheckTCP(seg []byte, src, dst netip.Addr) error {
	if pseudoChecksum(src, dst, protoTCP, seg) != 0 {
		return fmt.Errorf("%w (TCP segment)", ErrBadChecksum)
	}
	return nil
}

// CheckUDP verifies the checksum of UDP datagram dgram (header and
// payload, as long as its header's Length) sent from src to dst.
func CheckUDP(dgram []byte, src, dst netip.Addr) error {
	if pseudoChecksum(src, dst, protoUDP, dgram) != 0 {
		return fmt.Errorf("%w (UDP datagram)", ErrBadChecksum)
	}
	return nil
}

// pseudoChecksum computes the transport checksum over the IPv4
// pseudo-header plus the segment bytes. When the segment's checksum field
// is already populated, the result is 0 for a valid segment.
func pseudoChecksum(src, dst netip.Addr, proto uint8, seg []byte) uint16 {
	s4, d4 := src.As4(), dst.As4()
	sum := uint64(binary.BigEndian.Uint32(s4[:])) +
		uint64(binary.BigEndian.Uint32(d4[:])) +
		uint64(proto) + uint64(uint16(len(seg)))
	return foldSum(sum + onesSum(seg))
}
