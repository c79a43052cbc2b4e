// Package simnet implements the discrete-event simulated internet that the
// packet-mode measurement harness runs over: a deterministic event
// scheduler, hosts addressable by IPv4 address, and a path model with
// per-pair latency and loss that fault injectors can manipulate over time.
//
// The simulator is single-goroutine and deterministic: given the same seed
// and the same sequence of scheduled events, every run produces identical
// packet timings. That determinism is what makes the month-scale experiment
// reproducible and the protocol tests exact.
package simnet

import (
	"fmt"
	"time"
)

// The scheduler is a binary min-heap over a pooled event arena:
//
//   - events live in a flat arena indexed by int32 with a free list and
//     per-node generation counters, so scheduling allocates nothing in
//     steady state and a stale TimerHandle cannot touch the node's next
//     occupant;
//   - the heap orders (at, seq) entries: ascending time, and FIFO among
//     events at the same instant. Each node keeps its entry's heap index,
//     so TimerHandle.Stop takes a cancelled timer out of the heap at once
//     and never leaves it queued until its fire time;
//   - drivers feed a time-ordered input stream through RunBefore instead
//     of scheduling it up front, so the heap holds only the events in
//     flight: the packet runner's transactions are such a stream (DESIGN
//     §5g has the measured queue depths);
//   - an event records the causal context (SetContext) that was current
//     when it was scheduled and restores it when dispatched — the
//     mechanism the sharded packet runner uses to attribute every RNG
//     draw to the client whose transaction caused it, independent of how
//     clients are partitioned across shards.

// eventNode is one scheduled event in the arena. Exactly one of fn or
// (host, pkt) is set: fn for callback events, (host, pkt) for direct
// packet deliveries (which avoid a closure per packet on the hottest
// path).
type eventNode struct {
	fn   func()
	host *Host
	pkt  *Packet
	ctx  int32
	gen  uint32 // bumped when the node is freed
	pos  int32  // index of the node's entry in the heap while queued
}

// heapEntry is one queued event: its dispatch key and its arena node.
type heapEntry struct {
	at  Time
	seq uint64
	id  int32
}

// before reports whether e dispatches ahead of f.
func (e heapEntry) before(f heapEntry) bool {
	return e.at < f.at || (e.at == f.at && e.seq < f.seq)
}

// Scheduler is a deterministic discrete-event scheduler.
// The zero value is ready to use at Time 0.
type Scheduler struct {
	now        Time
	seq        uint64
	dispatched uint64
	ctx        int32 // current causal context (see SetContext)

	arena []eventNode
	free  []int32 // ids of unused arena nodes
	heap  []heapEntry
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Dispatched returns the number of events executed so far. The count is
// deterministic for a given seed and schedule; drivers fold it into an
// observability registry after the run (the scheduler itself stays
// zero-dependency). Cancelled timers are never dispatched and do not
// count.
func (s *Scheduler) Dispatched() uint64 { return s.dispatched }

// Context returns the current causal context, an opaque int32 owned by
// the driver (the packet-mode runner stores the client index whose
// transaction is executing). The zero value is 0.
func (s *Scheduler) Context() int32 { return s.ctx }

// SetContext sets the causal context recorded by subsequently scheduled
// events. Dispatching an event restores the context that was current when
// it was scheduled, so context propagates along causal chains.
func (s *Scheduler) SetContext(ctx int32) { s.ctx = ctx }

// freeNode returns a node to the free list, bumping its generation so
// stale TimerHandles cannot touch the next occupant.
func (s *Scheduler) freeNode(id int32) {
	n := &s.arena[id]
	n.fn = nil
	n.host = nil
	n.pkt = nil
	n.gen++
	s.free = append(s.free, id)
}

// place stores e at heap index i and records the index in its node.
func (s *Scheduler) place(i int, e heapEntry) {
	s.heap[i] = e
	s.arena[e.id].pos = int32(i)
}

// siftUp places e at index i or above, moving larger ancestors down.
func (s *Scheduler) siftUp(i int, e heapEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(s.heap[parent]) {
			break
		}
		s.place(i, s.heap[parent])
		i = parent
	}
	s.place(i, e)
}

// siftDown places e at index i or below, moving smaller children up.
func (s *Scheduler) siftDown(i int, e heapEntry) {
	n := len(s.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.heap[r].before(s.heap[child]) {
			child = r
		}
		if !s.heap[child].before(e) {
			break
		}
		s.place(i, s.heap[child])
		i = child
	}
	s.place(i, e)
}

// remove takes the entry at heap index i out of the heap. The last entry
// fills the hole and moves up or down, whichever restores the order.
func (s *Scheduler) remove(i int) {
	last := len(s.heap) - 1
	e := s.heap[last]
	s.heap = s.heap[:last]
	if i == last {
		return
	}
	if i > 0 && e.before(s.heap[(i-1)/2]) {
		s.siftUp(i, e)
	} else {
		s.siftDown(i, e)
	}
}

// schedule allocates, fills, and queues one event, returning its id.
func (s *Scheduler) schedule(t Time, fn func(), host *Host, pkt *Packet) int32 {
	if t < s.now {
		panic(fmt.Sprintf("simnet: scheduling at %v before now %v", t, s.now))
	}
	var id int32
	if k := len(s.free); k > 0 {
		id = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		s.arena = append(s.arena, eventNode{})
		id = int32(len(s.arena) - 1)
	}
	n := &s.arena[id]
	n.fn = fn
	n.host = host
	n.pkt = pkt
	n.ctx = s.ctx
	s.seq++
	s.heap = append(s.heap, heapEntry{})
	s.siftUp(len(s.heap)-1, heapEntry{at: t, seq: s.seq, id: id})
	return id
}

// At schedules fn to run at the given absolute simulated time. Scheduling in
// the past panics: it would silently reorder causality.
func (s *Scheduler) At(t Time, fn func()) {
	s.schedule(t, fn, nil, nil)
}

// After schedules fn to run d from now. Negative d runs fn at the current
// instant (after already-queued events at this instant).
func (s *Scheduler) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now.Add(d), fn, nil, nil)
}

// schedulePacket schedules a direct packet delivery to host after d —
// the closure-free fast path used by Network.send.
func (s *Scheduler) schedulePacket(d time.Duration, host *Host, pkt *Packet) {
	s.schedule(s.now.Add(d), nil, host, pkt)
}

// TimerHandle is a value-type cancellable reference to a scheduled
// callback. The zero value is inert: Stop reports false and Scheduled
// reports false.
type TimerHandle struct {
	s   *Scheduler
	id  int32
	gen uint32
}

// Stop cancels the timer, reporting whether the call prevented the
// callback from running. The event leaves the heap and its node and
// closure are released at once, in O(log n).
func (t TimerHandle) Stop() bool {
	if !t.Scheduled() {
		return false
	}
	t.s.remove(int(t.s.arena[t.id].pos))
	t.s.freeNode(t.id)
	return true
}

// Scheduled reports whether the callback is still pending: not yet fired
// and not cancelled.
func (t TimerHandle) Scheduled() bool {
	return t.s != nil && t.s.arena[t.id].gen == t.gen
}

// AfterHandle schedules fn like After but returns a cancellable handle
// without allocating.
func (s *Scheduler) AfterHandle(d time.Duration, fn func()) TimerHandle {
	if d < 0 {
		d = 0
	}
	id := s.schedule(s.now.Add(d), fn, nil, nil)
	return TimerHandle{s: s, id: id, gen: s.arena[id].gen}
}

// Step runs the next pending event and reports whether one existed.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.heap[0]
	s.remove(0)
	n := &s.arena[e.id]
	s.now = e.at
	s.dispatched++
	s.ctx = n.ctx
	fn, host, pkt := n.fn, n.host, n.pkt
	s.freeNode(e.id)
	if fn != nil {
		fn()
	} else {
		host.receive(pkt)
	}
	return true
}

// Run executes events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunBefore executes events with at < t, then advances the clock to t.
// Events queued for t or later stay queued, so work the caller does next
// at t runs before all of them, as if it had been scheduled first: this
// is how a driver feeds a time-ordered input stream to the simulation
// without queueing the whole stream.
func (s *Scheduler) RunBefore(t Time) { s.run(t, t) }

// RunUntil executes events with at <= deadline, then advances the clock to
// the deadline. Events scheduled after the deadline remain queued.
func (s *Scheduler) RunUntil(deadline Time) { s.run(deadline+1, deadline) }

// run executes events with at < end, then advances the clock to clock.
func (s *Scheduler) run(end, clock Time) {
	for len(s.heap) > 0 && s.heap[0].at < end {
		s.Step()
	}
	if s.now < clock {
		s.now = clock
	}
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.heap) }
