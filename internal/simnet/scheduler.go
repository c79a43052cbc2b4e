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
	"math/bits"
	"time"
)

// The scheduler is a hierarchical timer wheel (Varghese & Lauck) over a
// pooled event arena:
//
//   - time is bucketed into 2^tickShift ns ticks (~1.05 ms); each of the
//     wheelLevels levels has 64 slots covering 64^(l+1) ticks, so the
//     total horizon is 64^6 ticks ≈ 2.3 years — far beyond a month-long
//     run; events past the horizon go to an overflow list that is folded
//     back in as the clock approaches them;
//   - events live in a flat arena indexed by int32 with a free list and
//     per-node generation counters, so scheduling allocates nothing in
//     steady state and a cancelled timer is invalidated O(1) without
//     leaving a live closure riding the queue to its fire time;
//   - slot chains are unordered; when the wheel advances to a slot its
//     events move into a small value-typed ready heap ordered by
//     (at, seq), which preserves the exact global dispatch order of the
//     old binary-heap scheduler (FIFO among same-instant events);
//   - an event records the causal context (SetContext) that was current
//     when it was scheduled and restores it when dispatched — the
//     mechanism the sharded packet runner uses to attribute every RNG
//     draw to the client whose transaction caused it, independent of how
//     clients are partitioned across shards.
const (
	tickShift   = 20 // 2^20 ns ≈ 1.05 ms per tick
	levelBits   = 6
	wheelSlots  = 1 << levelBits
	slotMask    = wheelSlots - 1
	wheelLevels = 6
	// horizonTicks is the span the wheel can hold beyond curTick.
	horizonTicks = 1 << (levelBits * wheelLevels)

	noEvent = int32(-1)
)

// eventNode is one scheduled event in the arena. Exactly one of fn or
// (host, pkt) is set: fn for callback events, (host, pkt) for direct
// packet deliveries (which avoid a closure per packet on the hottest
// path). A node with neither is a cancelled tombstone awaiting lazy
// reclamation when its slot expires.
type eventNode struct {
	at   Time
	seq  uint64
	fn   func()
	host *Host
	pkt  *Packet
	next int32
	ctx  int32
	gen  uint32
}

// readyEvent is a due event in the dispatch heap.
type readyEvent struct {
	at  Time
	seq uint64
	id  int32
}

// Scheduler is a deterministic discrete-event scheduler.
// The zero value is ready to use at Time 0.
type Scheduler struct {
	now        Time
	seq        uint64
	dispatched uint64
	live       int   // queued, non-cancelled events
	ctx        int32 // current causal context (see SetContext)

	curTick     int64
	arena       []eventNode
	free        int32
	wheel       [wheelLevels][wheelSlots]int32
	occupied    [wheelLevels]uint64
	overflow    int32
	overflowMin int64 // min tick on the overflow list, valid when non-empty
	ready       []readyEvent
	initialized bool
}

func (s *Scheduler) init() {
	for l := range s.wheel {
		for i := range s.wheel[l] {
			s.wheel[l][i] = noEvent
		}
	}
	s.free = noEvent
	s.overflow = noEvent
	s.initialized = true
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Dispatched returns the number of events executed so far. The count is
// deterministic for a given seed and schedule; drivers fold it into an
// observability registry after the run (the scheduler itself stays
// zero-dependency). Cancelled timers are reclaimed without dispatching
// and do not count.
func (s *Scheduler) Dispatched() uint64 { return s.dispatched }

// Context returns the current causal context, an opaque int32 owned by
// the driver (the packet-mode runner stores the client index whose
// transaction is executing). The zero value is 0.
func (s *Scheduler) Context() int32 { return s.ctx }

// SetContext sets the causal context recorded by subsequently scheduled
// events. Dispatching an event restores the context that was current when
// it was scheduled, so context propagates along causal chains.
func (s *Scheduler) SetContext(ctx int32) { s.ctx = ctx }

// alloc takes a node from the free list or grows the arena.
func (s *Scheduler) alloc() int32 {
	if !s.initialized {
		s.init()
	}
	if s.free != noEvent {
		id := s.free
		s.free = s.arena[id].next
		return id
	}
	s.arena = append(s.arena, eventNode{})
	return int32(len(s.arena) - 1)
}

// freeNode returns a node to the free list, bumping its generation so
// stale TimerHandles cannot touch the next occupant.
func (s *Scheduler) freeNode(id int32) {
	n := &s.arena[id]
	n.fn = nil
	n.host = nil
	n.pkt = nil
	n.gen++
	n.next = s.free
	s.free = id
}

// insert places an allocated node into the ready heap, wheel, or
// overflow list according to its tick distance from curTick.
func (s *Scheduler) insert(id int32) {
	n := &s.arena[id]
	tick := int64(n.at) >> tickShift
	if tick <= s.curTick {
		s.pushReady(readyEvent{at: n.at, seq: n.seq, id: id})
		return
	}
	for l := 0; l < wheelLevels; l++ {
		shift := uint(levelBits * l)
		// File at the lowest level where the distance in level-l units
		// fits one rotation; distance >= 1 here, so the slot never
		// collides with the wheel's current position at this level.
		if (tick>>shift)-(s.curTick>>shift) < wheelSlots {
			slot := int((tick >> shift) & slotMask)
			n.next = s.wheel[l][slot]
			s.wheel[l][slot] = id
			s.occupied[l] |= 1 << uint(slot)
			return
		}
	}
	n.next = s.overflow
	if s.overflow == noEvent || tick < s.overflowMin {
		s.overflowMin = tick
	}
	s.overflow = id
}

// schedule allocates, fills, and inserts one event, returning its id.
func (s *Scheduler) schedule(t Time, fn func(), host *Host, pkt *Packet) int32 {
	if t < s.now {
		panic(fmt.Sprintf("simnet: scheduling at %v before now %v", t, s.now))
	}
	id := s.alloc()
	s.seq++
	n := &s.arena[id]
	n.at = t
	n.seq = s.seq
	n.fn = fn
	n.host = host
	n.pkt = pkt
	n.ctx = s.ctx
	n.next = noEvent
	s.live++
	s.insert(id)
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
// callback from running. Cancellation is O(1): the event's closure is
// released immediately and the arena slot is reclaimed lazily when its
// wheel slot expires.
func (t TimerHandle) Stop() bool {
	if t.s == nil {
		return false
	}
	n := &t.s.arena[t.id]
	if n.gen != t.gen || n.fn == nil {
		return false
	}
	n.fn = nil
	t.s.live--
	return true
}

// Scheduled reports whether the callback is still pending: not yet fired
// and not cancelled.
func (t TimerHandle) Scheduled() bool {
	if t.s == nil {
		return false
	}
	n := &t.s.arena[t.id]
	return n.gen == t.gen && n.fn != nil
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

// pushReady pushes onto the (at, seq) min-heap of due events.
func (s *Scheduler) pushReady(e readyEvent) {
	s.ready = append(s.ready, e)
	i := len(s.ready) - 1
	for i > 0 {
		parent := (i - 1) / 2
		p := s.ready[parent]
		if p.at < e.at || (p.at == e.at && p.seq < e.seq) {
			break
		}
		s.ready[i] = p
		i = parent
	}
	s.ready[i] = e
}

// popReady removes the minimum due event. The heap must be non-empty.
func (s *Scheduler) popReady() readyEvent {
	top := s.ready[0]
	last := len(s.ready) - 1
	e := s.ready[last]
	s.ready = s.ready[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last {
			c := s.ready[r]
			l := s.ready[child]
			if c.at < l.at || (c.at == l.at && c.seq < l.seq) {
				child = r
			}
		}
		c := s.ready[child]
		if e.at < c.at || (e.at == c.at && e.seq < c.seq) {
			break
		}
		s.ready[i] = c
		i = child
	}
	s.ready[i] = e
	return top
}

// nextSlot returns the circular distance (starting at pos itself, which
// insert keeps vacant at level 0) to the nearest occupied slot in occ, or
// 64 when occ is empty.
func nextSlot(occ uint64, pos int) int {
	rot := bits.RotateLeft64(occ, -pos)
	if rot == 0 {
		return wheelSlots
	}
	return bits.TrailingZeros64(rot)
}

// expireChain moves a slot chain into the ready heap (callbacks and
// packet deliveries) or the free list (cancelled tombstones).
func (s *Scheduler) expireChain(id int32) {
	for id != noEvent {
		n := &s.arena[id]
		next := n.next
		if n.fn == nil && n.pkt == nil {
			s.freeNode(id)
		} else {
			s.pushReady(readyEvent{at: n.at, seq: n.seq, id: id})
		}
		id = next
	}
}

// reinsertChain re-files a cascaded higher-level chain into lower levels
// (or the ready heap) after curTick has advanced.
func (s *Scheduler) reinsertChain(id int32) {
	for id != noEvent {
		n := &s.arena[id]
		next := n.next
		if n.fn == nil && n.pkt == nil {
			s.freeNode(id)
		} else {
			s.insert(id)
		}
		id = next
	}
}

// rescanOverflow re-files overflow events that now fit the wheel.
func (s *Scheduler) rescanOverflow() {
	id := s.overflow
	s.overflow = noEvent
	var keepMin int64
	for id != noEvent {
		n := &s.arena[id]
		next := n.next
		switch {
		case n.fn == nil && n.pkt == nil:
			s.freeNode(id)
		case int64(n.at)>>tickShift-s.curTick < horizonTicks:
			s.insert(id)
		default:
			tick := int64(n.at) >> tickShift
			if s.overflow == noEvent || tick < keepMin {
				keepMin = tick
			}
			n.next = s.overflow
			s.overflow = id
		}
		id = next
	}
	s.overflowMin = keepMin
}

// advance moves the wheel one step toward the next due event: either
// expire the nearest level-0 slot into the ready heap, or cascade the
// nearest occupied higher-level slot down. Callers loop until the ready
// heap is non-empty.
func (s *Scheduler) advance() {
	if s.overflow != noEvent && s.overflowMin-s.curTick < horizonTicks {
		s.rescanOverflow()
		return
	}
	const inf = int64(1) << 62
	t0 := inf
	if d := nextSlot(s.occupied[0], int(s.curTick&slotMask)); d < wheelSlots {
		t0 = s.curTick + int64(d)
	}
	minB := inf
	minL := -1
	for l := 1; l < wheelLevels; l++ {
		if s.occupied[l] == 0 {
			continue
		}
		shift := uint(levelBits * l)
		pos := int((s.curTick >> shift) & slotMask)
		// d == 0 means the current unit's own slot holds events (filed
		// before curTick entered the unit): it must cascade first.
		d := nextSlot(s.occupied[l], pos)
		b := ((s.curTick >> shift) + int64(d)) << shift
		if b < minB {
			minB = b
			minL = l
		}
	}
	if t0 == inf && minB == inf {
		if s.overflow != noEvent {
			s.curTick = s.overflowMin - 1
			s.rescanOverflow()
			return
		}
		panic("simnet: scheduler has live events but empty wheel")
	}
	if minB <= t0 {
		// A higher-level unit starts at or before the nearest level-0
		// event: cascade it first, it may contain earlier events.
		shift := uint(levelBits * minL)
		if minB > s.curTick {
			s.curTick = minB
		}
		slot := int((minB >> shift) & slotMask)
		id := s.wheel[minL][slot]
		s.wheel[minL][slot] = noEvent
		s.occupied[minL] &^= 1 << uint(slot)
		s.reinsertChain(id)
		return
	}
	s.curTick = t0
	slot := int(t0 & slotMask)
	id := s.wheel[0][slot]
	s.wheel[0][slot] = noEvent
	s.occupied[0] &^= 1 << uint(slot)
	s.expireChain(id)
}

// fillReady ensures the ready heap holds the next due event, advancing
// the wheel as needed. It reports false when no live events remain.
func (s *Scheduler) fillReady() bool {
	for len(s.ready) == 0 {
		if s.live == 0 {
			s.reclaimAll()
			return false
		}
		s.advance()
	}
	return true
}

// reclaimAll frees any cancelled tombstones still chained in the wheel or
// overflow list once no live events remain, so long-running simulations
// with heavy timer churn do not accumulate dead arena nodes between runs.
func (s *Scheduler) reclaimAll() {
	if !s.initialized {
		return
	}
	for l := 0; l < wheelLevels; l++ {
		if s.occupied[l] == 0 {
			continue
		}
		for slot := 0; slot < wheelSlots; slot++ {
			id := s.wheel[l][slot]
			s.wheel[l][slot] = noEvent
			for id != noEvent {
				next := s.arena[id].next
				s.freeNode(id)
				id = next
			}
		}
		s.occupied[l] = 0
	}
	id := s.overflow
	s.overflow = noEvent
	for id != noEvent {
		next := s.arena[id].next
		s.freeNode(id)
		id = next
	}
}

// Step runs the next pending event and reports whether one existed.
func (s *Scheduler) Step() bool {
	for {
		if !s.fillReady() {
			return false
		}
		ev := s.popReady()
		n := &s.arena[ev.id]
		if n.fn == nil && n.pkt == nil {
			s.freeNode(ev.id)
			continue
		}
		s.now = ev.at
		s.dispatched++
		s.live--
		s.ctx = n.ctx
		fn, host, pkt := n.fn, n.host, n.pkt
		s.freeNode(ev.id)
		if fn != nil {
			fn()
		} else {
			host.receive(pkt)
		}
		return true
	}
}

// Run executes events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// peekLive returns the time of the next live event, purging cancelled
// tombstones off the top of the ready heap.
func (s *Scheduler) peekLive() (Time, bool) {
	for {
		if !s.fillReady() {
			return 0, false
		}
		ev := s.ready[0]
		n := &s.arena[ev.id]
		if n.fn == nil && n.pkt == nil {
			s.popReady()
			s.freeNode(ev.id)
			continue
		}
		return ev.at, true
	}
}

// RunUntil executes events with at <= deadline, then advances the clock to
// the deadline. Events scheduled after the deadline remain queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		at, ok := s.peekLive()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending reports the number of queued live events. Cancelled timers
// leave the count immediately, before their arena slots are reclaimed.
func (s *Scheduler) Pending() int { return s.live }
