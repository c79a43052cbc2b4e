package netwire

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	addrA = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	addrB = netip.AddrFrom4([4]byte{192, 168, 1, 2})
)

// decodeTCP decodes an IPv4 packet carrying TCP through the decoders the
// simulator uses, verifying both checksums.
func decodeTCP(pkt []byte) (IPv4, TCPHeader, []byte, error) {
	var ip IPv4
	var h TCPHeader
	seg, err := DecodeIPv4Into(pkt, &ip)
	if err == nil {
		err = CheckIPv4(pkt)
	}
	if err != nil {
		return ip, h, nil, err
	}
	payload, err := DecodeTCPInto(seg, &h)
	if err == nil {
		err = CheckTCP(seg, ip.Src, ip.Dst)
	}
	return ip, h, payload, err
}

// decodeUDP is decodeTCP's UDP counterpart.
func decodeUDP(pkt []byte) (IPv4, UDPHeader, []byte, error) {
	var ip IPv4
	var h UDPHeader
	dgram, err := DecodeIPv4Into(pkt, &ip)
	if err == nil {
		err = CheckIPv4(pkt)
	}
	if err != nil {
		return ip, h, nil, err
	}
	payload, err := DecodeUDPInto(dgram, &h)
	if err == nil {
		err = CheckUDP(dgram[:h.Length], ip.Src, ip.Dst)
	}
	return ip, h, payload, err
}

func TestIPv4RoundTrip(t *testing.T) {
	payload := []byte("hello, internet")
	pkt, err := AppendUDPPacket(nil, addrA, addrB, &UDPHeader{SrcPort: 1, DstPort: 2}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != IPv4HeaderLen+UDPHeaderLen+len(payload) {
		t.Fatalf("encoded length = %d", len(pkt))
	}
	var got IPv4
	body, err := DecodeIPv4Into(pkt, &got)
	if err == nil {
		err = CheckIPv4(pkt)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Every packet the simulator sends carries TOS 0, ID 0 and TTL 64.
	want := IPv4{TotalLen: uint16(len(pkt)), TTL: 64, Protocol: 17, Src: addrA, Dst: addrB}
	if got != want {
		t.Errorf("decoded header = %+v, want %+v", got, want)
	}
	if !bytes.Equal(body, pkt[IPv4HeaderLen:]) {
		t.Errorf("payload mismatch: %q", body)
	}
}

func TestIPv4Corruption(t *testing.T) {
	pkt, err := AppendTCPPacket(nil, addrA, addrB, &TCPHeader{SrcPort: 1, DstPort: 2}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < IPv4HeaderLen; i++ {
		bad := append([]byte(nil), pkt...)
		bad[i] ^= 0xff
		var h IPv4
		if _, err := DecodeIPv4Into(bad, &h); err == nil && CheckIPv4(bad) == nil {
			// Every single-byte corruption in the header is either
			// malformed or fails the checksum.
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

func TestIPv4Truncated(t *testing.T) {
	pkt, _ := AppendUDPPacket(nil, addrA, addrB, &UDPHeader{SrcPort: 1, DstPort: 2}, []byte("abcdef"))
	var h IPv4
	if _, err := DecodeIPv4Into(pkt[:10], &h); err == nil {
		t.Error("short header accepted")
	}
	if CheckIPv4(pkt[:10]) == nil {
		t.Error("short header passed the checksum check")
	}
	if _, err := DecodeIPv4Into(pkt[:30], &h); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestIPv4RejectsNonIPv4(t *testing.T) {
	v6 := netip.MustParseAddr("2001:db8::1")
	if _, err := AppendUDPPacket(nil, v6, addrB, &UDPHeader{}, nil); err == nil {
		t.Error("UDP encoding with IPv6 source accepted")
	}
	if _, err := AppendTCPPacket(nil, addrA, v6, &TCPHeader{}, nil); err == nil {
		t.Error("TCP encoding with IPv6 destination accepted")
	}
	bad := make([]byte, IPv4HeaderLen)
	bad[0] = 0x65 // version 6
	var h IPv4
	if _, err := DecodeIPv4Into(bad, &h); err == nil {
		t.Error("version 6 accepted")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\n\r\n")
	h := TCPHeader{SrcPort: 49152, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagPSH | FlagACK, Window: 65535}
	pkt, err := AppendTCPPacket(nil, addrA, addrB, &h, payload)
	if err != nil {
		t.Fatal(err)
	}
	_, got, body, err := decodeTCP(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("decoded = %+v, want %+v", got, h)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("payload mismatch")
	}
}

func TestTCPChecksumBindsAddresses(t *testing.T) {
	pkt, err := AppendTCPPacket(nil, addrA, addrB, &TCPHeader{SrcPort: 1, DstPort: 2, Flags: FlagSYN}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Checking against the wrong pseudo-header addresses must fail: this
	// is what catches misrouted segments. (Note that merely *swapping*
	// src and dst preserves the checksum — the one's complement sum is
	// commutative — exactly as with real TCP.)
	other := netip.AddrFrom4([4]byte{172, 16, 0, 9})
	seg := pkt[IPv4HeaderLen:]
	if CheckTCP(seg, addrA, addrB) != nil {
		t.Fatal("segment rejected with its own addresses")
	}
	if CheckTCP(seg, addrA, other) == nil {
		t.Error("segment accepted with wrong destination address")
	}
}

func TestTCPCorruption(t *testing.T) {
	pkt, _ := AppendTCPPacket(nil, addrA, addrB, &TCPHeader{SrcPort: 5, DstPort: 6, Seq: 9}, []byte("data"))
	for i := IPv4HeaderLen; i < len(pkt); i++ {
		bad := append([]byte(nil), pkt...)
		bad[i] ^= 0x01
		if _, _, _, err := decodeTCP(bad); err == nil {
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 100)
	pkt, err := AppendUDPPacket(nil, addrA, addrB, &UDPHeader{SrcPort: 53000, DstPort: 53}, payload)
	if err != nil {
		t.Fatal(err)
	}
	_, got, body, err := decodeUDP(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 53000 || got.DstPort != 53 || int(got.Length) != UDPHeaderLen+len(payload) {
		t.Errorf("decoded = %+v", got)
	}
	if !bytes.Equal(body, payload) {
		t.Error("payload mismatch")
	}
}

func TestUDPTruncated(t *testing.T) {
	pkt, _ := AppendUDPPacket(nil, addrA, addrB, &UDPHeader{SrcPort: 1, DstPort: 2}, []byte("hello"))
	dgram := pkt[IPv4HeaderLen:]
	var h UDPHeader
	if _, err := DecodeUDPInto(dgram[:4], &h); err == nil {
		t.Error("short UDP header accepted")
	}
	if _, err := DecodeUDPInto(dgram[:len(dgram)-1], &h); err == nil {
		t.Error("truncated UDP payload accepted")
	}
}

func TestFullStackEncode(t *testing.T) {
	// TCP inside IPv4, then decode both layers.
	pkt, err := AppendTCPPacket(nil, addrA, addrB, &TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 7, Flags: FlagSYN, Window: 8192}, nil)
	if err != nil {
		t.Fatal(err)
	}
	iph, tcph, _, err := decodeTCP(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if iph.Protocol != 6 || iph.Src != addrA || iph.Dst != addrB {
		t.Errorf("decoded IPv4 = %+v", iph)
	}
	if tcph.Flags != FlagSYN || tcph.DstPort != 80 {
		t.Errorf("decoded TCP = %+v", tcph)
	}
}

func TestFlagString(t *testing.T) {
	cases := []struct {
		flags uint8
		want  string
	}{
		{FlagSYN, "S"},
		{FlagSYN | FlagACK, "SA"},
		{FlagRST, "R"},
		{FlagFIN | FlagACK, "FA"},
		{FlagPSH | FlagACK, "PA"},
		{0, "."},
	}
	for _, tc := range cases {
		if got := FlagString(tc.flags); got != tc.want {
			t.Errorf("FlagString(%#x) = %q, want %q", tc.flags, got, tc.want)
		}
	}
}

func TestTCPRoundTripProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, seq, ack uint32, flags uint8, window uint16, payload []byte) bool {
		h := TCPHeader{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack, Flags: flags & 0x1f, Window: window}
		pkt, err := AppendTCPPacket(nil, addrA, addrB, &h, payload)
		if err != nil {
			return false
		}
		_, got, body, err := decodeTCP(pkt)
		return err == nil && got == h && bytes.Equal(body, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUDPRoundTripProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		pkt, err := AppendUDPPacket(nil, addrA, addrB, &UDPHeader{SrcPort: srcPort, DstPort: dstPort}, payload)
		if err != nil {
			return false
		}
		_, got, body, err := decodeUDP(pkt)
		return err == nil && got.SrcPort == srcPort && got.DstPort == dstPort && bytes.Equal(body, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeAppendsToDst(t *testing.T) {
	prefix := []byte{1, 2, 3}
	out, err := AppendUDPPacket(prefix, addrA, addrB, &UDPHeader{SrcPort: 1, DstPort: 2}, []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:3], prefix) {
		t.Error("prefix clobbered")
	}
	if _, _, _, err := decodeUDP(out[3:]); err != nil {
		t.Errorf("appended encoding not decodable: %v", err)
	}
}

// refChecksum is RFC 1071's plain algorithm: add the data as big-endian
// 16-bit words (an odd last byte padded with a zero), fold the carries
// back in, complement.
func refChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
		sum = sum&0xffff + sum>>16
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TestChecksumMatchesReference holds the word-wide sum to refChecksum,
// alone and behind an IPv4 pseudo-header, over random lengths (odd ones
// included), start offsets that misalign the words, and runs of 0xFF
// that make the 64-bit additions carry. The round-trip tests cannot
// catch a wrong sum, because the Check functions share it.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	buf := make([]byte, 3000+8)
	for i := 0; i < 3000; i++ {
		n, off := rng.Intn(3001), rng.Intn(8)
		if i < 8 {
			n, off = 3000, i // the longest run of 0xFF, at every offset
		}
		b := buf[off : off+n]
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		switch {
		case i < 8:
			for j := range b {
				b[j] = 0xff
			}
		case i%2 == 0:
			for j := 0; j < len(b); {
				run := rng.Intn(64)
				for ; run > 0 && j < len(b); run-- {
					b[j] = 0xff
					j++
				}
				j += rng.Intn(8)
			}
		}
		if got, want := checksum(b), refChecksum(b); got != want {
			t.Fatalf("checksum of %d bytes at offset %d = %#04x, want %#04x", n, off, got, want)
		}

		src := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), 0xff, 0xff})
		dst := netip.AddrFrom4([4]byte{0xff, 0xff, byte(rng.Intn(256)), byte(rng.Intn(256))})
		proto := uint8(protoTCP)
		if rng.Intn(2) == 0 {
			proto = protoUDP
		}
		s4, d4 := src.As4(), dst.As4()
		pseudo := append(append(append([]byte(nil), s4[:]...), d4[:]...), 0, proto, byte(n>>8), byte(n))
		if got, want := pseudoChecksum(src, dst, proto, b), refChecksum(append(pseudo, b...)); got != want {
			t.Fatalf("pseudo-header checksum of %d bytes at offset %d = %#04x, want %#04x", n, off, got, want)
		}
	}
}
