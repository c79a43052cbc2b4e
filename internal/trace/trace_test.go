package trace

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"webfail/internal/netwire"
	"webfail/internal/simnet"
)

var (
	tA = netip.MustParseAddr("10.1.0.1")
	tB = netip.MustParseAddr("10.1.0.2")
)

func tcpPacket(t *testing.T, src, dst netip.Addr, h *netwire.TCPHeader, payload []byte) []byte {
	t.Helper()
	b, err := netwire.AppendTCPPacket(nil, src, dst, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func udpPacket(t *testing.T, src, dst netip.Addr, h *netwire.UDPHeader, payload []byte) []byte {
	t.Helper()
	b, err := netwire.AppendUDPPacket(nil, src, dst, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewPacketTCP(t *testing.T) {
	h := netwire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 1, Flags: netwire.FlagPSH | netwire.FlagACK}
	data := tcpPacket(t, tA, tB, &h, []byte("GET /"))
	p := NewPacket(0, simnet.Out, data)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.IPv4 == nil || p.TCP == nil || p.UDP != nil {
		t.Fatal("decoded headers wrong")
	}
	if *p.TCP != h {
		t.Errorf("TCP header = %+v, want %+v", *p.TCP, h)
	}
	if string(p.Payload) != "GET /" {
		t.Errorf("payload = %q", p.Payload)
	}
	f, ok := p.TransportFlow()
	if !ok || f.Src != (Endpoint{tA, 40000}) || f.Dst != (Endpoint{tB, 80}) {
		t.Errorf("flow = %v", f)
	}
	if f.Reverse().Src.Port != 80 {
		t.Error("reverse wrong")
	}
}

func TestNewPacketUDP(t *testing.T) {
	data := udpPacket(t, tA, tB, &netwire.UDPHeader{SrcPort: 5353, DstPort: 53}, []byte("q"))
	p := NewPacket(0, simnet.In, data)
	if p.Err != nil || p.UDP == nil || p.TCP != nil || string(p.Payload) != "q" {
		t.Fatalf("decoded %+v", p)
	}
	f, ok := p.TransportFlow()
	if !ok || f.Dst.Port != 53 {
		t.Errorf("flow = %v", f)
	}
}

func TestNewPacketGarbage(t *testing.T) {
	p := NewPacket(0, simnet.In, []byte{1, 2, 3})
	if p.Err == nil {
		t.Error("garbage decoded without error")
	}
	if p.IPv4 != nil {
		t.Error("header present despite error")
	}
	if _, ok := p.TransportFlow(); ok {
		t.Error("flow from garbage")
	}
}

func TestNewPacketBadTransport(t *testing.T) {
	// Valid IPv4, corrupt TCP: the IPv4 header is kept, the error
	// exposed. The corruption is in the TCP part only, outside the IPv4
	// checksum's scope.
	for _, data := range [][]byte{
		tcpPacket(t, tA, tB, &netwire.TCPHeader{SrcPort: 1, DstPort: 2, Flags: netwire.FlagSYN}, []byte("x")),
		udpPacket(t, tA, tB, &netwire.UDPHeader{SrcPort: 1, DstPort: 2}, []byte("x")),
	} {
		data[len(data)-1] ^= 0xff
		p := NewPacket(0, simnet.In, data)
		if p.IPv4 == nil {
			t.Fatalf("protocol %d: IPv4 header should survive", data[9])
		}
		if !errors.Is(p.Err, netwire.ErrBadChecksum) || p.TCP != nil || p.UDP != nil || p.Payload != nil {
			t.Errorf("protocol %d: corrupt transport decoded as %+v", data[9], p)
		}
	}
}

// synthConn builds a synthetic packet sequence for a connection scenario.
type synthConn struct {
	t       *testing.T
	packets []*Packet
	cliSeq  uint32
	srvSeq  uint32
	at      simnet.Time
}

func newSynth(t *testing.T) *synthConn { return &synthConn{t: t, cliSeq: 1000, srvSeq: 5000} }

func (s *synthConn) add(src, dst netip.Addr, h *netwire.TCPHeader, payload []byte) {
	s.at += simnet.Time(1e6)
	s.packets = append(s.packets, NewPacket(s.at, simnet.Out, tcpPacket(s.t, src, dst, h, payload)))
}

func (s *synthConn) handshake() {
	s.add(tA, tB, &netwire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: s.cliSeq, Flags: netwire.FlagSYN}, nil)
	s.add(tB, tA, &netwire.TCPHeader{SrcPort: 80, DstPort: 40000, Seq: s.srvSeq, Ack: s.cliSeq + 1, Flags: netwire.FlagSYN | netwire.FlagACK}, nil)
	s.cliSeq++
	s.srvSeq++
	s.add(tA, tB, &netwire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: s.cliSeq, Ack: s.srvSeq, Flags: netwire.FlagACK}, nil)
}

func (s *synthConn) request() {
	req := []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	s.add(tA, tB, &netwire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: s.cliSeq, Ack: s.srvSeq, Flags: netwire.FlagPSH | netwire.FlagACK}, req)
	s.cliSeq += uint32(len(req))
}

func (s *synthConn) response(n int, fin bool) {
	body := bytes.Repeat([]byte("r"), n)
	s.add(tB, tA, &netwire.TCPHeader{SrcPort: 80, DstPort: 40000, Seq: s.srvSeq, Ack: s.cliSeq, Flags: netwire.FlagPSH | netwire.FlagACK}, body)
	s.srvSeq += uint32(n)
	if fin {
		s.add(tB, tA, &netwire.TCPHeader{SrcPort: 80, DstPort: 40000, Seq: s.srvSeq, Ack: s.cliSeq, Flags: netwire.FlagFIN | netwire.FlagACK}, nil)
	}
}

func analyzeOne(t *testing.T, packets []*Packet) *FlowStats {
	t.Helper()
	flows := AnalyzeTCP(packets)
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	for _, s := range flows {
		return s
	}
	return nil
}

func TestClassifyComplete(t *testing.T) {
	s := newSynth(t)
	s.handshake()
	s.request()
	s.response(500, true)
	fs := analyzeOne(t, s.packets)
	if got := fs.Classify(); got != ConnComplete {
		t.Errorf("class = %v", got)
	}
	if fs.ServerPayloadBytes != 500 || fs.ClientPayloadBytes == 0 {
		t.Errorf("bytes = %d/%d", fs.ClientPayloadBytes, fs.ServerPayloadBytes)
	}
}

func TestClassifyNoConnection(t *testing.T) {
	s := newSynth(t)
	// Three unanswered SYNs (retransmissions).
	for i := 0; i < 3; i++ {
		s.add(tA, tB, &netwire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: s.cliSeq, Flags: netwire.FlagSYN}, nil)
	}
	fs := analyzeOne(t, s.packets)
	if got := fs.Classify(); got != ConnNoConnection {
		t.Errorf("class = %v", got)
	}
	if fs.SYNs != 3 {
		t.Errorf("SYNs = %d", fs.SYNs)
	}
	if fs.ClientRetransmits != 2 {
		t.Errorf("retransmitted SYNs = %d, want 2", fs.ClientRetransmits)
	}
}

func TestClassifyRefusedIsNoConnection(t *testing.T) {
	s := newSynth(t)
	s.add(tA, tB, &netwire.TCPHeader{SrcPort: 40000, DstPort: 80, Seq: s.cliSeq, Flags: netwire.FlagSYN}, nil)
	s.add(tB, tA, &netwire.TCPHeader{SrcPort: 80, DstPort: 40000, Seq: 0, Ack: s.cliSeq + 1, Flags: netwire.FlagRST | netwire.FlagACK}, nil)
	fs := analyzeOne(t, s.packets)
	if got := fs.Classify(); got != ConnNoConnection {
		t.Errorf("class = %v", got)
	}
	if !fs.RSTToSYN {
		t.Error("RSTToSYN not detected")
	}
}

func TestClassifyNoResponse(t *testing.T) {
	s := newSynth(t)
	s.handshake()
	s.request()
	fs := analyzeOne(t, s.packets)
	if got := fs.Classify(); got != ConnNoResponse {
		t.Errorf("class = %v", got)
	}
}

func TestClassifyPartialResponseRST(t *testing.T) {
	s := newSynth(t)
	s.handshake()
	s.request()
	s.response(300, false)
	s.add(tB, tA, &netwire.TCPHeader{SrcPort: 80, DstPort: 40000, Seq: s.srvSeq, Ack: s.cliSeq, Flags: netwire.FlagRST | netwire.FlagACK}, nil)
	fs := analyzeOne(t, s.packets)
	if got := fs.Classify(); got != ConnPartialResponse {
		t.Errorf("class = %v", got)
	}
}

func TestClassifyPartialResponseSilence(t *testing.T) {
	s := newSynth(t)
	s.handshake()
	s.request()
	s.response(300, false) // data but no FIN, then nothing
	fs := analyzeOne(t, s.packets)
	if got := fs.Classify(); got != ConnPartialResponse {
		t.Errorf("class = %v", got)
	}
}

func TestRetransmissionInference(t *testing.T) {
	s := newSynth(t)
	s.handshake()
	s.request()
	// Server sends the same data segment twice (one retransmission).
	body := bytes.Repeat([]byte("d"), 100)
	for i := 0; i < 2; i++ {
		s.add(tB, tA, &netwire.TCPHeader{SrcPort: 80, DstPort: 40000, Seq: s.srvSeq, Ack: s.cliSeq, Flags: netwire.FlagACK | netwire.FlagPSH}, body)
	}
	fs := analyzeOne(t, s.packets)
	if fs.ServerRetransmits != 1 {
		t.Errorf("server retransmits = %d, want 1", fs.ServerRetransmits)
	}
	if fs.ServerPayloadBytes != 100 {
		t.Errorf("payload counted twice: %d", fs.ServerPayloadBytes)
	}
	if fs.LossRate() <= 0 {
		t.Error("loss rate should be positive")
	}
}

func TestAnalyzeMultipleFlows(t *testing.T) {
	s := newSynth(t)
	s.handshake()
	s.request()
	s.response(10, true)
	// Second connection from a different port.
	s.add(tA, tB, &netwire.TCPHeader{SrcPort: 40001, DstPort: 80, Seq: 9000, Flags: netwire.FlagSYN}, nil)
	flows := AnalyzeTCP(s.packets)
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
	sorted := SortedFlows(flows)
	if len(sorted) != 2 || sorted[0].Flow.String() > sorted[1].Flow.String() {
		t.Fatal("SortedFlows not sorted")
	}
	if c0, c1 := sorted[0].Classify(), sorted[1].Classify(); c0 != ConnComplete || c1 != ConnNoConnection {
		t.Errorf("classes = %v, %v; want complete, no-connection", c0, c1)
	}
}

func TestCaptureAttach(t *testing.T) {
	n := simnet.NewNetwork(1)
	a := n.AddHost("a", tA)
	b := n.AddHost("b", tB)
	_ = b.Bind(simnet.UDP, 53, func(*simnet.Packet) {})
	cap := &Capture{}
	cap.Attach(a)
	for i := 0; i < 8; i++ {
		data := udpPacket(t, tA, tB, &netwire.UDPHeader{SrcPort: 5353, DstPort: 53}, []byte{byte(i)})
		a.Send(&simnet.Packet{Src: tA, Dst: tB, Proto: simnet.UDP, Bytes: data})
	}
	n.Sched.Run()
	pkts := cap.Packets()
	if len(pkts) != 8 {
		t.Fatalf("captured %d packets, want 8", len(pkts))
	}
	for i, p := range pkts {
		if p.Dir != simnet.Out || p.UDP == nil || p.Payload[0] != byte(i) {
			t.Errorf("packet %d: dir %v, payload %v", i, p.Dir, p.Payload)
		}
	}
}

func TestConnClassStrings(t *testing.T) {
	if ConnNoConnection.String() != "no-connection" || ConnComplete.String() != "complete" {
		t.Error("class strings")
	}
}
