package tcpsim

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"webfail/internal/simnet"
)

var (
	cliAddr = netip.MustParseAddr("10.0.0.1")
	srvAddr = netip.MustParseAddr("10.0.0.2")
)

type harness struct {
	net *simnet.Network
	cli *Stack
	srv *Stack
}

func newHarness(seed int64) *harness {
	n := simnet.NewNetwork(seed)
	cliHost := n.AddHost("cli", cliAddr)
	srvHost := n.AddHost("srv", srvAddr)
	return &harness{net: n, cli: NewStack(cliHost), srv: NewStack(srvHost)}
}

// echoServer accepts connections and echoes everything it receives, then
// closes when the peer closes.
func (h *harness) echoServer(t *testing.T, port uint16) {
	t.Helper()
	err := h.srv.Listen(port, &Listener{
		Accept: func(c *Conn) {
			c.SetCallbacks(Callbacks{
				OnData: func(data []byte) { c.Send(data) },
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeAndEcho(t *testing.T) {
	h := newHarness(1)
	h.echoServer(t, 80)

	var got bytes.Buffer
	connected := false
	var closeErr error
	closed := false
	c := h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnConnect: func() { connected = true },
		OnData:    func(d []byte) { got.Write(d) },
		OnClose:   func(err error) { closed, closeErr = true, err },
	})
	msg := []byte("hello over simulated tcp")
	c.Send(msg)
	h.net.Sched.RunUntil(simnet.Time(2 * time.Second))
	if !connected {
		t.Fatal("never connected")
	}
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("echo = %q", got.Bytes())
	}
	c.Close()
	h.net.Sched.Run()
	if !closed || closeErr != nil {
		t.Fatalf("closed=%v err=%v, want clean close", closed, closeErr)
	}
	if h.srv.Accepted != 1 || h.cli.Dialed != 1 {
		t.Errorf("accepted=%d dialed=%d", h.srv.Accepted, h.cli.Dialed)
	}
}

func TestLargeTransfer(t *testing.T) {
	h := newHarness(2)
	// Server sends 200 KB (multiple windows) on accept, then closes.
	payload := bytes.Repeat([]byte("0123456789abcdef"), 200*1024/16)
	err := h.srv.Listen(80, &Listener{
		Accept: func(c *Conn) {
			c.Send(payload)
			c.Close()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var closeErr error
	closed := false
	h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnData:  func(d []byte) { got.Write(d) },
		OnClose: func(err error) { closed, closeErr = true, err },
	})
	h.net.Sched.Run()
	if !closed || closeErr != nil {
		t.Fatalf("closed=%v err=%v", closed, closeErr)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("received %d bytes, want %d; corrupted=%v", got.Len(), len(payload), !bytes.Equal(got.Bytes(), payload))
	}
}

func TestLargeTransferWithLoss(t *testing.T) {
	h := newHarness(3)
	h.net.SetPathFunc(func(src, dst *simnet.Host, now simnet.Time) simnet.PathState {
		return simnet.PathState{Latency: 20 * time.Millisecond, Loss: 0.05}
	})
	payload := bytes.Repeat([]byte("x"), 100*1024)
	_ = h.srv.Listen(80, &Listener{
		Accept: func(c *Conn) {
			c.Send(payload)
			c.Close()
		},
	})
	var got bytes.Buffer
	closed := false
	var closeErr error
	h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnData:  func(d []byte) { got.Write(d) },
		OnClose: func(err error) { closed, closeErr = true, err },
	})
	h.net.Sched.Run()
	if !closed {
		t.Fatal("transfer never completed under 5% loss")
	}
	if closeErr != nil {
		t.Fatalf("close err = %v", closeErr)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("received %d bytes, want %d", got.Len(), len(payload))
	}
}

func TestBidirectional(t *testing.T) {
	h := newHarness(4)
	h.echoServer(t, 9000)
	var got bytes.Buffer
	c := h.cli.Dial(netip.AddrPortFrom(srvAddr, 9000), Callbacks{
		OnData: func(d []byte) { got.Write(d) },
	})
	// Multiple sends interleaved with time.
	c.Send([]byte("first "))
	h.net.Sched.RunUntil(simnet.Time(500 * time.Millisecond))
	c.Send([]byte("second "))
	h.net.Sched.RunUntil(simnet.Time(time.Second))
	c.Send([]byte("third"))
	h.net.Sched.RunUntil(simnet.Time(5 * time.Second))
	if got.String() != "first second third" {
		t.Fatalf("echo = %q", got.String())
	}
}

func TestConnectionRefusedByClosedPort(t *testing.T) {
	h := newHarness(5)
	var closeErr error
	h.cli.Dial(netip.AddrPortFrom(srvAddr, 81), Callbacks{
		OnClose: func(err error) { closeErr = err },
	})
	h.net.Sched.Run()
	if closeErr != ErrConnRefused {
		t.Fatalf("err = %v, want refused", closeErr)
	}
}

func TestConnectionRefusedByListener(t *testing.T) {
	h := newHarness(6)
	_ = h.srv.Listen(80, &Listener{
		Accept: func(c *Conn) {},
		Refuse: func(simnet.Time) bool { return true },
	})
	var closeErr error
	h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnClose: func(err error) { closeErr = err },
	})
	h.net.Sched.Run()
	if closeErr != ErrConnRefused {
		t.Fatalf("err = %v, want refused", closeErr)
	}
}

func TestConnectTimeoutHostDown(t *testing.T) {
	h := newHarness(7)
	h.srv.Status = func(simnet.Time) HostStatus { return HostDown }
	var closeErr error
	var closedAt simnet.Time
	h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnClose: func(err error) { closeErr = err; closedAt = h.net.Sched.Now() },
	})
	h.net.Sched.Run()
	if closeErr != ErrConnTimeout {
		t.Fatalf("err = %v, want timeout", closeErr)
	}
	// 3 SYNs with 3s+6s+12s timeouts: failure at 21s.
	want := simnet.Time(21 * time.Second)
	if closedAt != want {
		t.Errorf("failed at %v, want %v", closedAt, want)
	}
}

func TestConnectTimeoutPathDown(t *testing.T) {
	h := newHarness(8)
	h.echoServer(t, 80)
	h.net.SetPathFunc(func(src, dst *simnet.Host, now simnet.Time) simnet.PathState {
		return simnet.PathState{Latency: time.Millisecond, Down: true}
	})
	var closeErr error
	h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnClose: func(err error) { closeErr = err },
	})
	h.net.Sched.Run()
	if closeErr != ErrConnTimeout {
		t.Fatalf("err = %v, want timeout", closeErr)
	}
}

func TestConnectSucceedsAfterTransientOutage(t *testing.T) {
	h := newHarness(9)
	h.echoServer(t, 80)
	// Path down for the first 4 seconds; the 3s SYN retry lands at 3s
	// (still down), the 9s retry succeeds.
	h.net.SetPathFunc(func(src, dst *simnet.Host, now simnet.Time) simnet.PathState {
		if now < simnet.Time(4*time.Second) {
			return simnet.PathState{Latency: time.Millisecond, Down: true}
		}
		return simnet.PathState{Latency: time.Millisecond}
	})
	connected := false
	var closeErr error
	h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnConnect: func() { connected = true },
		OnClose:   func(err error) { closeErr = err },
	})
	h.net.Sched.RunUntil(simnet.Time(30 * time.Second))
	if !connected {
		t.Fatalf("never connected; closeErr=%v", closeErr)
	}
}

func TestMidTransferReset(t *testing.T) {
	h := newHarness(10)
	var srvConn *Conn
	_ = h.srv.Listen(80, &Listener{
		Accept: func(c *Conn) {
			srvConn = c
			c.Send(bytes.Repeat([]byte("y"), 4096))
		},
	})
	var gotBytes int
	var closeErr error
	h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnData:  func(d []byte) { gotBytes += len(d) },
		OnClose: func(err error) { closeErr = err },
	})
	h.net.Sched.RunUntil(simnet.Time(time.Second))
	if gotBytes == 0 {
		t.Fatal("no data before reset")
	}
	srvConn.Abort()
	h.net.Sched.Run()
	if closeErr != ErrReset {
		t.Fatalf("err = %v, want reset (partial response)", closeErr)
	}
}

func TestServerDiesSilentlyMidTransfer(t *testing.T) {
	h := newHarness(11)
	died := simnet.Time(0)
	h.srv.Status = func(now simnet.Time) HostStatus {
		if died != 0 && now >= died {
			return HostDown
		}
		return HostUp
	}
	// Server sends a large payload; we kill it partway through.
	payload := bytes.Repeat([]byte("z"), 512*1024)
	_ = h.srv.Listen(80, &Listener{
		Accept: func(c *Conn) {
			c.Send(payload)
			c.Close()
		},
	})
	var gotBytes int
	var closeErr error
	closed := false
	h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnData:  func(d []byte) { gotBytes += len(d) },
		OnClose: func(err error) { closed, closeErr = true, err },
	})
	h.net.Sched.RunUntil(simnet.Time(300 * time.Millisecond))
	died = h.net.Sched.Now() // server stops responding from here on
	h.net.Sched.Run()
	if gotBytes == 0 || gotBytes >= len(payload) {
		t.Fatalf("gotBytes = %d of %d, want partial", gotBytes, len(payload))
	}
	// The client never hears another byte; its own receive side has
	// nothing to retransmit, so the connection just dangles (the HTTP
	// layer's idle timer is what declares the failure). The *server*
	// side is gone. Client conn should not be closed cleanly.
	if closed && closeErr == nil {
		t.Error("connection closed cleanly despite dead server")
	}
}

func TestSilentPeerNoResponse(t *testing.T) {
	// A listener that accepts and never sends: handshake OK, then
	// nothing — the paper's "no response" failure precursor.
	h := newHarness(12)
	_ = h.srv.Listen(80, &Listener{Accept: func(c *Conn) {}})
	connected := false
	var gotBytes int
	c := h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnConnect: func() { connected = true },
		OnData:    func(d []byte) { gotBytes += len(d) },
	})
	c.Send([]byte("GET / HTTP/1.1\r\n\r\n"))
	h.net.Sched.RunUntil(simnet.Time(90 * time.Second))
	if !connected {
		t.Fatal("handshake failed")
	}
	if gotBytes != 0 {
		t.Fatalf("got %d unexpected bytes", gotBytes)
	}
}

func TestRetransmitCountedUnderLoss(t *testing.T) {
	h := newHarness(13)
	h.net.SetPathFunc(func(src, dst *simnet.Host, now simnet.Time) simnet.PathState {
		return simnet.PathState{Latency: 10 * time.Millisecond, Loss: 0.15}
	})
	payload := bytes.Repeat([]byte("q"), 64*1024)
	var srvConn *Conn
	_ = h.srv.Listen(80, &Listener{
		Accept: func(c *Conn) {
			srvConn = c
			c.Send(payload)
			c.Close()
		},
	})
	var got int
	closed := false
	h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnData:  func(d []byte) { got += len(d) },
		OnClose: func(err error) { closed = true },
	})
	h.net.Sched.Run()
	if !closed || got != len(payload) {
		t.Fatalf("closed=%v got=%d want=%d", closed, got, len(payload))
	}
	if srvConn.Retransmits == 0 {
		t.Error("no retransmissions recorded under 15% loss")
	}
}

func TestSendAfterCloseIgnored(t *testing.T) {
	h := newHarness(14)
	h.echoServer(t, 80)
	var got bytes.Buffer
	c := h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnData: func(d []byte) { got.Write(d) },
	})
	c.Send([]byte("ok"))
	c.Close()
	c.Send([]byte("dropped"))
	h.net.Sched.Run()
	if got.String() != "ok" {
		t.Fatalf("echo = %q, want %q", got.String(), "ok")
	}
}

func TestCloseBeforeConnectCompletes(t *testing.T) {
	h := newHarness(15)
	h.echoServer(t, 80)
	closed := false
	var closeErr error
	c := h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
		OnClose: func(err error) { closed, closeErr = true, err },
	})
	c.Send([]byte("data"))
	c.Close() // before SYN-ACK arrives
	h.net.Sched.Run()
	if !closed || closeErr != nil {
		t.Fatalf("closed=%v err=%v, want clean close after handshake", closed, closeErr)
	}
}

func TestListenConflict(t *testing.T) {
	h := newHarness(16)
	if err := h.srv.Listen(80, &Listener{}); err != nil {
		t.Fatal(err)
	}
	if err := h.srv.Listen(80, &Listener{}); err == nil {
		t.Error("double listen accepted")
	}
}

func TestSimultaneousConnections(t *testing.T) {
	h := newHarness(17)
	h.echoServer(t, 80)
	const N = 20
	results := make([]bytes.Buffer, N)
	closedCount := 0
	for i := 0; i < N; i++ {
		i := i
		c := h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
			OnData:  func(d []byte) { results[i].Write(d) },
			OnClose: func(err error) { closedCount++ },
		})
		c.Send([]byte{byte('a' + i)})
		c.Close()
	}
	h.net.Sched.Run()
	for i := 0; i < N; i++ {
		want := string([]byte{byte('a' + i)})
		if results[i].String() != want {
			t.Errorf("conn %d echo = %q, want %q", i, results[i].String(), want)
		}
	}
	if closedCount != N {
		t.Errorf("closed %d of %d", closedCount, N)
	}
}

func TestDeterministicUnderLoss(t *testing.T) {
	run := func() (int, int) {
		h := newHarness(42)
		h.net.SetPathFunc(func(src, dst *simnet.Host, now simnet.Time) simnet.PathState {
			return simnet.PathState{Latency: 15 * time.Millisecond, Loss: 0.1}
		})
		payload := bytes.Repeat([]byte("d"), 32*1024)
		var srvConn *Conn
		_ = h.srv.Listen(80, &Listener{
			Accept: func(c *Conn) { srvConn = c; c.Send(payload); c.Close() },
		})
		got := 0
		h.cli.Dial(netip.AddrPortFrom(srvAddr, 80), Callbacks{
			OnData: func(d []byte) { got += len(d) },
		})
		h.net.Sched.Run()
		return got, srvConn.Retransmits
	}
	g1, r1 := run()
	g2, r2 := run()
	if g1 != g2 || r1 != r2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", g1, r1, g2, r2)
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(0xFFFFFFF0, 0x10) {
		t.Error("wraparound seqLT failed")
	}
	if seqLT(0x10, 0xFFFFFFF0) {
		t.Error("wraparound seqLT inverted")
	}
	if !seqLEQ(5, 5) || !seqLEQ(4, 5) || seqLEQ(6, 5) {
		t.Error("seqLEQ wrong")
	}
}
