package simnet

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"webfail/internal/netwire"
)

var (
	addrA = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	addrB = netip.AddrFrom4([4]byte{10, 0, 0, 2})
	addrC = netip.AddrFrom4([4]byte{10, 0, 0, 3})
)

// udpPacket builds a valid simulated UDP packet between two addresses.
func udpPacket(t *testing.T, src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) *Packet {
	t.Helper()
	b, err := netwire.AppendUDPPacket(nil, src, dst, &netwire.UDPHeader{SrcPort: srcPort, DstPort: dstPort}, payload)
	if err != nil {
		t.Fatal(err)
	}
	return &Packet{Src: src, Dst: dst, Proto: UDP, Bytes: b}
}

func TestTimeConversions(t *testing.T) {
	if Time(0).Unix() != Epoch {
		t.Errorf("Time(0).Unix() = %d, want %d", Time(0).Unix(), Epoch)
	}
	tm := FromHours(5).Add(30 * time.Minute)
	if tm.Hour() != 5 {
		t.Errorf("Hour = %d, want 5", tm.Hour())
	}
	if got := FromUnix(Epoch + 3600); got.Hour() != 1 {
		t.Errorf("FromUnix hour = %d, want 1", got.Hour())
	}
	if FromHours(2).Sub(FromHours(1)) != time.Hour {
		t.Error("Sub wrong")
	}
}

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var order []int
	s.At(FromHours(0).Add(2*time.Second), func() { order = append(order, 2) })
	s.At(FromHours(0).Add(1*time.Second), func() { order = append(order, 1) })
	s.At(FromHours(0).Add(3*time.Second), func() { order = append(order, 3) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != Time(3*time.Second) {
		t.Errorf("final now = %v", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	var s Scheduler
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(time.Second), func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	var s Scheduler
	s.At(Time(time.Second), func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(Time(0), func() {})
	})
	s.Run()
}

func TestSchedulerNegativeAfter(t *testing.T) {
	var s Scheduler
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Error("negative After never ran")
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	var s Scheduler
	var ran []int
	s.After(time.Second, func() { ran = append(ran, 1) })
	s.After(time.Hour, func() { ran = append(ran, 2) })
	s.RunUntil(Time(time.Minute))
	if len(ran) != 1 || ran[0] != 1 {
		t.Errorf("ran = %v, want [1]", ran)
	}
	if s.Now() != Time(time.Minute) {
		t.Errorf("now = %v, want 1m", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
}

func TestSchedulerCascade(t *testing.T) {
	// Events scheduled by events run in the same Run loop.
	var s Scheduler
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.After(time.Millisecond, recurse)
		}
	}
	s.After(0, recurse)
	s.Run()
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
}

func TestTimerStop(t *testing.T) {
	var s Scheduler
	fired := false
	timer := s.AfterHandle(time.Second, func() { fired = true })
	if !timer.Stop() {
		t.Error("first Stop should report true")
	}
	if timer.Stop() {
		t.Error("second Stop should report false")
	}
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerFires(t *testing.T) {
	var s Scheduler
	fired := false
	timer := s.AfterHandle(time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Error("timer did not fire")
	}
	if timer.Stop() {
		t.Error("Stop after firing should report false")
	}
}

func TestNetworkDelivery(t *testing.T) {
	n := NewNetwork(1)
	a := n.AddHost("a", addrA)
	b := n.AddHost("b", addrB)
	var got []byte
	var at Time
	if err := b.Bind(UDP, 53, func(pkt *Packet) {
		var ip netwire.IPv4
		var uh netwire.UDPHeader
		transport, err := netwire.DecodeIPv4Into(pkt.Bytes, &ip)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		payload, err := netwire.DecodeUDPInto(transport, &uh)
		if err == nil {
			err = netwire.CheckUDP(transport, pkt.Src, pkt.Dst)
		}
		if err != nil {
			t.Errorf("udp decode: %v", err)
			return
		}
		got = append([]byte(nil), payload...)
		at = n.Sched.Now()
	}); err != nil {
		t.Fatal(err)
	}
	a.Send(udpPacket(t, addrA, addrB, 40000, 53, []byte("query")))
	n.Sched.Run()
	if string(got) != "query" {
		t.Fatalf("payload = %q", got)
	}
	if at != Time(DefaultPath.Latency) {
		t.Errorf("delivered at %v, want %v", at, DefaultPath.Latency)
	}
	if n.Delivered != 1 || n.Dropped != 0 {
		t.Errorf("counters = %d/%d", n.Delivered, n.Dropped)
	}
}

// TestNetworkPathDown also pins what the path model is given: the
// sending and the receiving host, numbered by their AddHost order.
func TestNetworkPathDown(t *testing.T) {
	n := NewNetwork(1)
	a := n.AddHost("a", addrA)
	b := n.AddHost("b", addrB)
	if a.ID != 0 || b.ID != 1 {
		t.Fatalf("host IDs %d, %d; want 0, 1", a.ID, b.ID)
	}
	received := 0
	_ = a.Bind(UDP, 53, func(*Packet) { received++ })
	_ = b.Bind(UDP, 53, func(*Packet) { received++ })
	var seen [][2]*Host
	n.SetPathFunc(func(src, dst *Host, now Time) PathState {
		seen = append(seen, [2]*Host{src, dst})
		return PathState{Latency: time.Millisecond, Down: true}
	})
	a.Send(udpPacket(t, addrA, addrB, 1, 53, nil))
	b.Send(udpPacket(t, addrB, addrA, 1, 53, nil))
	n.Sched.Run()
	if received != 0 || n.Dropped != 2 {
		t.Errorf("received=%d dropped=%d", received, n.Dropped)
	}
	if len(seen) != 2 || seen[0] != [2]*Host{a, b} || seen[1] != [2]*Host{b, a} {
		t.Errorf("path model saw %v, want [a b] then [b a]", seen)
	}
}

func TestNetworkLoss(t *testing.T) {
	n := NewNetwork(7)
	a := n.AddHost("a", addrA)
	b := n.AddHost("b", addrB)
	received := 0
	_ = b.Bind(UDP, 9, func(*Packet) { received++ })
	n.SetPathFunc(func(src, dst *Host, now Time) PathState {
		return PathState{Latency: time.Millisecond, Loss: 0.5}
	})
	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(udpPacket(t, addrA, addrB, 1, 9, nil))
	}
	n.Sched.Run()
	if received < total/2-100 || received > total/2+100 {
		t.Errorf("received %d of %d at 50%% loss", received, total)
	}
	if int(n.Delivered)+int(n.Dropped) != total {
		t.Errorf("conservation: delivered %d + dropped %d != %d", n.Delivered, n.Dropped, total)
	}
}

// TestNetworkUnknownHost: a packet to an address no host holds is
// dropped, and the path model is still consulted for it, with a nil dst,
// so the model's draws keep their order.
func TestNetworkUnknownHost(t *testing.T) {
	n := NewNetwork(1)
	a := n.AddHost("a", addrA)
	calls := 0
	n.SetPathFunc(func(src, dst *Host, now Time) PathState {
		calls++
		if src != a || dst != nil {
			t.Errorf("path model saw src %v, dst %v; want a, nil", src, dst)
		}
		return PathState{Latency: time.Millisecond}
	})
	a.Send(udpPacket(t, addrA, addrC, 1, 9, nil))
	n.Sched.Run()
	if calls != 1 {
		t.Errorf("path model consulted %d times, want 1", calls)
	}
	if n.Dropped != 1 || n.Delivered != 0 {
		t.Errorf("dropped = %d, delivered = %d; want 1, 0", n.Dropped, n.Delivered)
	}
}

// TestHostDuplicateAddressPanics: AddHost refuses a taken address and
// one that is not IPv4, which the wire format cannot encode.
func TestHostDuplicateAddressPanics(t *testing.T) {
	n := NewNetwork(1)
	n.AddHost("a", addrA)
	for _, addr := range []netip.Addr{addrA, netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("::ffff:10.0.0.9")} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddHost(%v) did not panic", addr)
				}
			}()
			n.AddHost("a2", addr)
		}()
	}
}

func TestBindConflict(t *testing.T) {
	n := NewNetwork(1)
	a := n.AddHost("a", addrA)
	if err := a.Bind(UDP, 53, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Bind(UDP, 53, func(*Packet) {}); err == nil {
		t.Error("double bind accepted")
	}
	if err := a.Bind(TCP, 53, func(*Packet) {}); err != nil {
		t.Errorf("same port different proto rejected: %v", err)
	}
	a.Unbind(UDP, 53)
	if err := a.Bind(UDP, 53, func(*Packet) {}); err != nil {
		t.Errorf("rebind after unbind failed: %v", err)
	}
}

func TestWildcardHandler(t *testing.T) {
	n := NewNetwork(1)
	a := n.AddHost("a", addrA)
	b := n.AddHost("b", addrB)
	specific, wildcard, udp := 0, 0, 0
	_ = b.Bind(TCP, 80, func(*Packet) { specific++ })
	_ = b.Bind(TCP, 0, func(*Packet) { wildcard++ })
	// A UDP binding on the port the second segment targets must not
	// catch it: a binding is keyed by protocol and port together.
	_ = b.Bind(UDP, 8080, func(*Packet) { udp++ })
	send := func(port uint16) {
		bts, _ := netwire.AppendTCPPacket(nil, addrA, addrB, &netwire.TCPHeader{SrcPort: 5, DstPort: port, Flags: netwire.FlagSYN}, nil)
		a.Send(&Packet{Src: addrA, Dst: addrB, Proto: TCP, Bytes: bts})
	}
	send(80)
	send(8080)
	n.Sched.Run()
	if specific != 1 || wildcard != 1 || udp != 0 {
		t.Errorf("specific=%d wildcard=%d udp=%d, want 1/1/0", specific, wildcard, udp)
	}
}

func TestCapture(t *testing.T) {
	n := NewNetwork(1)
	a := n.AddHost("a", addrA)
	b := n.AddHost("b", addrB)
	_ = b.Bind(UDP, 53, func(*Packet) {})
	var dirs []Direction
	a.SetCapture(func(now Time, dir Direction, pkt *Packet) { dirs = append(dirs, dir) })
	var bDirs []Direction
	b.SetCapture(func(now Time, dir Direction, pkt *Packet) { bDirs = append(bDirs, dir) })
	a.Send(udpPacket(t, addrA, addrB, 1, 53, []byte("x")))
	n.Sched.Run()
	if len(dirs) != 1 || dirs[0] != Out {
		t.Errorf("a capture = %v", dirs)
	}
	if len(bDirs) != 1 || bDirs[0] != In {
		t.Errorf("b capture = %v", bDirs)
	}
}

func TestEphemeralPorts(t *testing.T) {
	n := NewNetwork(1)
	a := n.AddHost("a", addrA)
	seen := map[uint16]bool{}
	for i := 0; i < 1000; i++ {
		p := a.EphemeralPort(TCP)
		if p < 49152 {
			t.Fatalf("ephemeral port %d below dynamic range", p)
		}
		if seen[p] {
			t.Fatalf("port %d reused while unbound-but-recent; allocator should stride", p)
		}
		seen[p] = true
	}
	// Skips bound ports.
	n2 := NewNetwork(1)
	h := n2.AddHost("h", addrB)
	_ = h.Bind(TCP, 49152, func(*Packet) {})
	if p := h.EphemeralPort(TCP); p == 49152 {
		t.Error("allocator returned a bound port")
	}
}

func TestWrongSourcePanics(t *testing.T) {
	n := NewNetwork(1)
	a := n.AddHost("a", addrA)
	defer func() {
		if recover() == nil {
			t.Error("sending with foreign source did not panic")
		}
	}()
	a.Send(&Packet{Src: addrB, Dst: addrA, Proto: UDP, Bytes: make([]byte, 28)})
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		n := NewNetwork(99)
		a := n.AddHost("a", addrA)
		b := n.AddHost("b", addrB)
		_ = b.Bind(UDP, 7, func(*Packet) {})
		n.SetPathFunc(func(src, dst *Host, now Time) PathState {
			return PathState{Latency: 5 * time.Millisecond, Loss: 0.3}
		})
		for i := 0; i < 500; i++ {
			bts, _ := netwire.AppendUDPPacket(nil, addrA, addrB, &netwire.UDPHeader{SrcPort: 1, DstPort: 7}, nil)
			a.Send(&Packet{Src: addrA, Dst: addrB, Proto: UDP, Bytes: bts})
		}
		n.Sched.Run()
		return n.Delivered, n.Dropped
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
}

func TestHourProperty(t *testing.T) {
	f := func(h uint16, offsetMin uint8) bool {
		base := FromHours(int64(h))
		tm := base.Add(time.Duration(offsetMin%60) * time.Minute)
		return tm.Hour() == int64(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
