package simnet

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestTimerStopReleasesPending is the regression gate for the Stop
// cancellation bug: a stopped timer must leave the pending count at once,
// not linger in the queue as a live event. Timers are armed from the same
// instant out to 200 hours and cancelled in arbitrary order; Pending must
// reach zero without running the scheduler, and a subsequent Run must
// dispatch nothing.
func TestTimerStopReleasesPending(t *testing.T) {
	var s Scheduler
	delays := []time.Duration{
		0, time.Microsecond, time.Millisecond, 10 * time.Millisecond,
		time.Second, 90 * time.Second, time.Hour, 200 * time.Hour,
	}
	var handles []TimerHandle
	fired := 0
	for rep := 0; rep < 4; rep++ {
		for _, d := range delays {
			handles = append(handles, s.AfterHandle(d, func() { fired++ }))
		}
	}
	if got := s.Pending(); got != len(handles) {
		t.Fatalf("Pending = %d, want %d", got, len(handles))
	}
	// Stop in an order that interleaves near and far timers.
	for i := len(handles) - 1; i >= 0; i -= 2 {
		if !handles[i].Stop() {
			t.Fatalf("Stop(%d) reported false for a pending timer", i)
		}
		if handles[i].Scheduled() {
			t.Fatalf("handle %d still Scheduled after Stop", i)
		}
	}
	for i := 0; i < len(handles); i += 2 {
		if !handles[i].Stop() {
			t.Fatalf("Stop(%d) reported false for a pending timer", i)
		}
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after stopping all = %d, want 0", got)
	}
	s.Run()
	if fired != 0 {
		t.Fatalf("%d stopped timers fired", fired)
	}
	if s.Dispatched() != 0 {
		t.Fatalf("Dispatched = %d after all-cancelled run", s.Dispatched())
	}
}

// TestTimerStopAcrossRearm checks generation safety: a handle from a
// fired timer must not cancel an unrelated timer that recycled the same
// arena slot.
func TestTimerStopAcrossRearm(t *testing.T) {
	var s Scheduler
	h1 := s.AfterHandle(time.Millisecond, func() {})
	s.Run()
	if h1.Stop() {
		t.Error("Stop after fire reported true")
	}
	// The freed slot is recycled by the next timer.
	fired := false
	h2 := s.AfterHandle(time.Millisecond, func() { fired = true })
	if h1.Stop() {
		t.Error("stale handle cancelled a recycled slot")
	}
	s.Run()
	if !fired {
		t.Error("recycled timer did not fire")
	}
	_ = h2
}

// TestSchedulerMatchesReferenceOrder is the property test for the
// scheduler's heap: on random programs the dispatch trace — which event
// ran, at what time, what each of its Stop calls reported and how many
// events stayed queued — must equal the reference semantics of refQueue
// (ascending time, FIFO among events at the same instant, a stopped
// timer gone at once). The inputs:
//
//   - spread: times from sub-millisecond to 400 hours, a random quarter
//     stopped before the run;
//   - same-instant: times on a 1 ms grid of 12 points, so about a dozen
//     events share each instant;
//   - stop-in-callback: the same grid, with every dispatched event
//     stopping a timer at its own instant and one picked from every timer
//     armed so far (most of them deeper in the heap), and scheduling
//     another event at a grid offset from now;
//   - input-stream: stop-in-callback plus inputs fed through RunBefore,
//     each of which must run after every event due before its time and
//     before every event queued for that time, and schedules events of
//     its own.
func TestSchedulerMatchesReferenceOrder(t *testing.T) {
	grid := func(rng *rand.Rand) time.Duration {
		return time.Duration(rng.Intn(12)) * time.Millisecond
	}
	cases := []struct {
		name     string
		at       func(rng *rand.Rand) time.Duration
		preStop  bool
		callback bool
		inputs   bool
	}{
		{name: "spread", at: func(rng *rand.Rand) time.Duration {
			return time.Duration(rng.Int63n(int64([]time.Duration{
				time.Millisecond, time.Second, time.Hour, 400 * time.Hour,
			}[rng.Intn(4)])))
		}, preStop: true},
		{name: "same-instant", at: grid, preStop: true},
		{name: "stop-in-callback", at: grid, callback: true},
		{name: "input-stream", at: grid, callback: true, inputs: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := int64(0); trial < 20; trial++ {
				rng := rand.New(rand.NewSource(trial))
				p := refProgram{seed: uint64(trial), callback: tc.callback}
				for i, n := 0, 50+rng.Intn(200); i < n; i++ {
					p.at = append(p.at, Time(tc.at(rng)))
				}
				if tc.preStop {
					for i := range p.at {
						if rng.Intn(4) == 0 {
							p.preStop = append(p.preStop, i)
						}
					}
				}
				if tc.inputs {
					// Half-millisecond steps: some inputs share an
					// instant with queued events, some fall between.
					for i := 0; i < 40; i++ {
						p.inputs = append(p.inputs, Time(rng.Intn(28))*Time(time.Millisecond/2))
					}
					sort.Slice(p.inputs, func(i, j int) bool { return p.inputs[i] < p.inputs[j] })
				}
				want, got := p.runReference(), p.run()
				if len(got) != len(want) {
					t.Fatalf("trial %d: %d steps, want %d", trial, len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("trial %d: step %d = %+v, want %+v", trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// refProgram is one input of TestSchedulerMatchesReferenceOrder. Events
// 0..len(at)-1 are scheduled at at[i] in id order, then the preStop
// events are stopped, then the run starts. With callback set, each
// dispatched event acts as actions says; inputs are instants fed in
// through RunBefore, in order, each acting as inputActions says. Events
// scheduled by actions take the next ids.
type refProgram struct {
	seed     uint64
	at       []Time
	preStop  []int
	callback bool
	inputs   []Time
}

// refStep is one dispatched event (id >= 0) or input (id = -1-k) of a
// program's trace.
type refStep struct {
	id      int
	at      Time
	stopped []bool // what each Stop call reported
	pending int    // events queued after the step
}

// draw is a deterministic hash of (program, actor, k), so both runs of a
// program take the same actions whatever order they dispatch in.
func (p *refProgram) draw(actor, k int) int {
	x := p.seed*0x9e3779b97f4a7c15 + uint64(actor)*0xbf58476d1ce4e5b9 + uint64(k)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86b5d1ce4
	x ^= x >> 29
	return int(x >> 1)
}

// actions returns the timers event id stops and the delays of the events
// it schedules, given that ids below n exist: a timer at the event's own
// instant, then one anywhere in the heap, then one new event 0-3 ms out.
func (p *refProgram) actions(id, n int) (stops []int, spawn []time.Duration) {
	if !p.callback {
		return nil, nil
	}
	if id < len(p.at) {
		var same []int
		for j, at := range p.at {
			if at == p.at[id] && j != id {
				same = append(same, j)
			}
		}
		if len(same) > 0 {
			stops = append(stops, same[p.draw(id, 0)%len(same)])
		}
	}
	stops = append(stops, p.draw(id, 1)%n)
	if p.draw(id, 2)%3 != 0 {
		spawn = append(spawn, time.Duration(p.draw(id, 3)%4)*time.Millisecond)
	}
	return stops, spawn
}

// inputActions returns the delays of the events input k schedules: zero
// to two events, 0-2 ms out.
func (p *refProgram) inputActions(k int) []time.Duration {
	var spawn []time.Duration
	for i := 0; i < p.draw(-1-k, 0)%3; i++ {
		spawn = append(spawn, time.Duration(p.draw(-1-k, 1+i)%3)*time.Millisecond)
	}
	return spawn
}

// run executes the program on a Scheduler.
func (p *refProgram) run() []refStep {
	var s Scheduler
	var handles []TimerHandle
	var trace []refStep
	var fire func(id int) func()
	schedule := func(at Time) {
		handles = append(handles, s.AfterHandle(at.Sub(s.Now()), fire(len(handles))))
	}
	fire = func(id int) func() {
		return func() {
			st := refStep{id: id, at: s.Now()}
			stops, spawn := p.actions(id, len(handles))
			for _, j := range stops {
				st.stopped = append(st.stopped, handles[j].Stop())
			}
			for _, d := range spawn {
				schedule(s.Now().Add(d))
			}
			st.pending = s.Pending()
			trace = append(trace, st)
		}
	}
	for _, at := range p.at {
		schedule(at)
	}
	for _, id := range p.preStop {
		handles[id].Stop()
	}
	for k, at := range p.inputs {
		s.RunBefore(at)
		st := refStep{id: -1 - k, at: s.Now()}
		for _, d := range p.inputActions(k) {
			schedule(s.Now().Add(d))
		}
		st.pending = s.Pending()
		trace = append(trace, st)
	}
	s.Run()
	return trace
}

// runReference executes the program on a refQueue.
func (p *refProgram) runReference() []refStep {
	var q refQueue
	var trace []refStep
	n := 0
	schedule := func(at Time) {
		q.evs = append(q.evs, refEvent{at: at, id: n})
		n++
	}
	fire := func(e refEvent) {
		st := refStep{id: e.id, at: e.at}
		stops, spawn := p.actions(e.id, n)
		for _, j := range stops {
			st.stopped = append(st.stopped, q.stop(j))
		}
		for _, d := range spawn {
			schedule(e.at.Add(d))
		}
		st.pending = len(q.evs)
		trace = append(trace, st)
	}
	for _, at := range p.at {
		schedule(at)
	}
	for _, id := range p.preStop {
		q.stop(id)
	}
	for k, at := range p.inputs {
		for e, ok := q.popBefore(at); ok; e, ok = q.popBefore(at) {
			fire(e)
		}
		st := refStep{id: -1 - k, at: at}
		for _, d := range p.inputActions(k) {
			schedule(at.Add(d))
		}
		st.pending = len(q.evs)
		trace = append(trace, st)
	}
	for e, ok := q.popBefore(math.MaxInt64); ok; e, ok = q.popBefore(math.MaxInt64) {
		fire(e)
	}
	return trace
}

// refQueue is the reference semantics: pending events in scheduling
// order, dispatched earliest first and FIFO within an instant.
type refQueue struct{ evs []refEvent }

type refEvent struct {
	at Time
	id int
}

// stop removes event id, reporting whether it was pending.
func (q *refQueue) stop(id int) bool {
	for i, e := range q.evs {
		if e.id == id {
			q.evs = append(q.evs[:i], q.evs[i+1:]...)
			return true
		}
	}
	return false
}

// popBefore removes and returns the first-scheduled of the earliest
// events due before end.
func (q *refQueue) popBefore(end Time) (refEvent, bool) {
	best := -1
	for i, e := range q.evs {
		if e.at < end && (best < 0 || e.at < q.evs[best].at) {
			best = i
		}
	}
	if best < 0 {
		return refEvent{}, false
	}
	e := q.evs[best]
	q.evs = append(q.evs[:best], q.evs[best+1:]...)
	return e, true
}

// TestSchedulerTimerChurnZeroAlloc gates the pooled event arena: arming
// and cancelling timers, and the schedule/dispatch cycle itself, must not
// allocate once the arena has grown to steady state.
func TestSchedulerTimerChurnZeroAlloc(t *testing.T) {
	var s Scheduler
	fn := func() {}
	// Warm up the arena, free list and heap.
	for i := 0; i < 64; i++ {
		s.AfterHandle(time.Duration(i)*time.Millisecond, fn).Stop()
	}
	s.Run()

	if n := testing.AllocsPerRun(1000, func() {
		h := s.AfterHandle(time.Millisecond, fn)
		h.Stop()
	}); n != 0 {
		t.Errorf("arm+Stop allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.AfterHandle(time.Millisecond, fn)
		s.Run()
	}); n != 0 {
		t.Errorf("arm+dispatch allocates %.1f per op, want 0", n)
	}
}

// TestPacketSendDeliverZeroAlloc gates the pooled packet path: a
// steady-state send/deliver cycle through the network — pooled buffer
// out, scheduler hop, handler dispatch, buffer recycled — must not
// allocate.
func TestPacketSendDeliverZeroAlloc(t *testing.T) {
	net := NewNetwork(1)
	a := net.AddHost("a", addrA)
	b := net.AddHost("b", addrB)
	if err := b.Bind(UDP, 53, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	payload := udpPacket(t, addrA, addrB, 1000, 53, []byte("x")).Bytes

	send := func() {
		pkt := net.AllocPacket()
		pkt.Bytes = append(pkt.Bytes[:0], payload...)
		pkt.Src, pkt.Dst, pkt.Proto = addrA, addrB, UDP
		a.Send(pkt)
		net.Sched.Run()
	}
	// Warm-up grows the packet pool and arena.
	for i := 0; i < 16; i++ {
		send()
	}
	if n := testing.AllocsPerRun(1000, send); n != 0 {
		t.Errorf("send/deliver allocates %.1f per op, want 0", n)
	}
}

// TestPacketPoolRecycles: a delivered pooled packet's object is returned
// to the pool and handed out by the next AllocPacket, so the steady-state
// working set is one buffer per in-flight packet.
func TestPacketPoolRecycles(t *testing.T) {
	net := NewNetwork(1)
	a := net.AddHost("a", addrA)
	b := net.AddHost("b", addrB)
	if err := b.Bind(UDP, 53, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	base := udpPacket(t, addrA, addrB, 1000, 53, []byte("y"))

	pkt := net.AllocPacket()
	pkt.Bytes = append(pkt.Bytes[:0], base.Bytes...)
	pkt.Src, pkt.Dst, pkt.Proto = addrA, addrB, UDP
	a.Send(pkt)
	net.Sched.Run()

	if again := net.AllocPacket(); again != pkt {
		t.Error("delivered packet was not recycled by the pool")
	}
}
