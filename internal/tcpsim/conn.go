package tcpsim

import (
	"net/netip"
	"time"

	"webfail/internal/netwire"
	"webfail/internal/simnet"
)

// connState is the TCP connection state (simplified machine).
type connState uint8

const (
	stateSYNSent connState = iota
	stateSYNReceived
	stateEstablished
	// stateFINSent: we sent FIN (possibly still retransmitting data
	// before it); we still accept and deliver peer data.
	stateFINSent
	stateClosed
)

// seqLEQ compares sequence numbers with wraparound (RFC 793 arithmetic).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// Conn is one TCP connection endpoint.
type Conn struct {
	stack     *Stack
	key       connKey
	localPort uint16
	remote    netip.AddrPort
	cb        Callbacks
	listener  *Listener
	state     connState

	// Send side. Sequence space: iss is the initial sequence number;
	// sndBuf holds unsent-or-unacked application bytes where offset 0
	// corresponds to sequence iss+1; FIN, when queued, occupies the
	// sequence slot just past the buffered data.
	iss    uint32
	sndBuf []byte
	// sndStore is the pooled array backing sndBuf (sndBuf may alias its
	// middle after acked bytes are dropped); returned to the stack's
	// pool at teardown.
	sndStore       []byte
	sndUna         uint32 // oldest unacknowledged sequence
	sndNxt         uint32 // next sequence to transmit
	sndMax         uint32 // highest sequence ever transmitted + 1
	finAt          uint32 // sequence of our FIN, valid when finQueued
	finQueued      bool
	closeRequested bool

	// Receive side.
	rcvNxt      uint32
	ooo         map[uint32][]byte // out-of-order segments keyed by sequence
	peerFIN     uint32
	peerFINSeen bool

	// Congestion control (byte-based).
	cwnd     int
	ssthresh int
	peerWnd  uint16
	dupAcks  int

	// Timers and RTT estimation (RFC 6298): srtt/rttvar are sampled
	// from acks of segments that were not retransmitted (Karn's
	// algorithm), giving long-RTT paths a proportionate RTO instead of
	// spurious retransmissions.
	rtoTimer simnet.TimerHandle
	// rtoFn caches the onRTO method value so re-arming the
	// retransmission timer does not allocate a fresh closure each time.
	rtoFn      func()
	rtoBackoff int
	synTries   int
	srtt       time.Duration
	rttvar     time.Duration
	// RTT sampling state: the send time of the newest segment, valid
	// when no retransmission has happened since it was sent.
	sampleSeq   uint32
	sampleAt    simnet.Time
	sampleValid bool

	// Stats.
	Retransmits int
	BytesIn     int
	BytesOut    int

	closedErr  error
	closedDone bool
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() netip.AddrPort { return c.remote }

// LocalPort returns the local port of this connection.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// transmit emits one segment on this connection.
func (c *Conn) transmit(flags uint8, seq, ack uint32, payload []byte) {
	h := netwire.TCPHeader{
		SrcPort: c.localPort,
		DstPort: c.remote.Port(),
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		Window:  recvWindow,
	}
	c.stack.emit(c.remote.Addr(), &h, payload)
}

// sendSYN transmits the initial SYN (attempt try) and arms the retry timer
// with exponential backoff: 3 s, 6 s, 12 s, ...
func (c *Conn) sendSYN(try int) {
	if c.state != stateSYNSent {
		return
	}
	c.synTries = try
	if try > 0 {
		c.Retransmits++
		c.sampleValid = false // Karn applies to SYN retries too
	} else {
		c.sampleSeq = c.iss + 1
		c.sampleAt = c.sched().Now()
		c.sampleValid = true
	}
	c.transmit(netwire.FlagSYN, c.iss, 0, nil)
	c.sndNxt = c.iss
	c.bumpSndNxt(1)
	timeout := initialRTO << uint(try)
	c.rtoTimer = c.sched().AfterHandle(timeout, func() {
		if c.state != stateSYNSent {
			return
		}
		if try+1 >= synRetries {
			c.teardown(ErrConnTimeout)
			return
		}
		c.sendSYN(try + 1)
	})
}

func (c *Conn) sched() *simnet.Scheduler { return c.stack.host.Network().Sched }

// Send queues application data for transmission. Sending on a closed or
// closing connection is a no-op.
func (c *Conn) Send(data []byte) {
	if c.state == stateClosed || c.finQueued || c.closeRequested {
		return
	}
	if len(c.sndBuf)+len(data) > cap(c.sndBuf) {
		c.growSndBuf(len(c.sndBuf) + len(data))
	}
	c.sndBuf = append(c.sndBuf, data...)
	if c.state == stateEstablished || c.state == stateFINSent {
		c.pump()
	}
}

// growSndBuf moves the buffered bytes into a pooled array with capacity
// for at least need bytes. Connections are short-lived and sequential on
// a simulated host, so pooling the arrays turns the one-buffer-per-
// connection allocation into reuse.
func (c *Conn) growSndBuf(need int) {
	store := c.stack.grabSendBuf(need)
	n := copy(store[:len(c.sndBuf)], c.sndBuf)
	old := c.sndStore
	c.sndStore = store
	c.sndBuf = store[:n]
	if old != nil {
		c.stack.releaseSendBuf(old)
	}
}

// Close queues a FIN after any buffered data and begins teardown.
func (c *Conn) Close() {
	if c.state == stateClosed || c.finQueued {
		return
	}
	c.closeRequested = true
	if c.state == stateEstablished {
		c.queueFIN()
		c.pump()
	}
	// In SYN states the FIN is queued once established.
}

func (c *Conn) queueFIN() {
	if c.finQueued {
		return
	}
	c.finQueued = true
	c.finAt = c.iss + 1 + uint32(len(c.sndBuf))
	c.state = stateFINSent
}

// Abort resets the connection immediately.
func (c *Conn) Abort() {
	if c.state == stateClosed {
		return
	}
	c.transmit(netwire.FlagRST|netwire.FlagACK, c.sndNxt, c.rcvNxt, nil)
	c.teardown(ErrAborted)
}

// teardown finalizes the connection exactly once.
func (c *Conn) teardown(err error) {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	c.closedErr = err
	c.rtoTimer.Stop()
	delete(c.stack.conns, c.key)
	if c.sndStore != nil {
		// Every transmitted segment copied its payload into the packet
		// buffer, so nothing aliases the store once the state machine
		// stops.
		c.stack.releaseSendBuf(c.sndStore)
		c.sndStore, c.sndBuf = nil, nil
	}
	// Clean closes linger in TIME_WAIT (2 minutes ~ 2*MSL) to absorb
	// stragglers; aborted connections do not (an RST already told the
	// peer everything).
	if err == nil {
		c.stack.enterTimeWait(c.key)
	}
	if !c.closedDone {
		c.closedDone = true
		if c.cb.OnClose != nil {
			c.cb.OnClose(err)
		}
	}
}

// bufOffset converts a send-space sequence number to an sndBuf index.
// Sequence iss+1 is sndBuf[0].
func (c *Conn) bufOffset(seq uint32) int { return int(seq - (c.iss + 1)) }

// bumpSndNxt advances sndNxt by n and keeps sndMax — the retransmission
// high-water mark — in sync. ACK validity is judged against sndMax, not
// sndNxt, because a go-back-N rewind moves sndNxt backwards while
// originally transmitted segments may still be ACKed by the peer.
func (c *Conn) bumpSndNxt(n uint32) {
	c.sndNxt += n
	if seqLT(c.sndMax, c.sndNxt) {
		c.sndMax = c.sndNxt
	}
}

// pump transmits whatever the windows currently allow, from sndNxt.
func (c *Conn) pump() {
	if c.state != stateEstablished && c.state != stateFINSent {
		return
	}
	wnd := c.cwnd
	if pw := int(c.peerWnd); pw < wnd {
		wnd = pw
	}
	dataEnd := c.iss + 1 + uint32(len(c.sndBuf))
	inFlightLimit := c.sndUna + uint32(wnd)
	sentAny := false
	for seqLT(c.sndNxt, dataEnd) && seqLT(c.sndNxt, inFlightLimit) {
		off := c.bufOffset(c.sndNxt)
		n := len(c.sndBuf) - off
		if n > MSS {
			n = MSS
		}
		room := int(inFlightLimit - c.sndNxt)
		if n > room {
			n = room
		}
		if n <= 0 {
			break
		}
		payload := c.sndBuf[off : off+n]
		c.transmit(netwire.FlagACK|netwire.FlagPSH, c.sndNxt, c.rcvNxt, payload)
		c.BytesOut += n
		c.bumpSndNxt(uint32(n))
		sentAny = true
	}
	// FIN rides after all data has been transmitted at least once.
	if c.finQueued && c.sndNxt == c.finAt {
		c.transmit(netwire.FlagFIN|netwire.FlagACK, c.sndNxt, c.rcvNxt, nil)
		c.bumpSndNxt(1)
		sentAny = true
	}
	if sentAny && !c.rtoTimer.Scheduled() {
		c.armRTO(c.currentRTO())
	}
}

func (c *Conn) currentRTO() time.Duration {
	base := dataRTO
	if c.srtt > 0 {
		base = c.srtt + 4*c.rttvar
		if base < minRTO {
			base = minRTO
		}
	}
	rto := base << uint(c.rtoBackoff)
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

// observeRTT folds one round-trip sample into the RFC 6298 estimator.
func (c *Conn) observeRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
		return
	}
	diff := c.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + sample) / 8
}

// armRTO (re)arms the retransmission timer.
func (c *Conn) armRTO(d time.Duration) {
	c.rtoTimer.Stop()
	c.rtoTimer = c.sched().AfterHandle(d, c.rtoFn)
}

// onRTO fires when the oldest unacked segment times out: classic go-back
// retransmission with multiplicative backoff and cwnd collapse.
func (c *Conn) onRTO() {
	c.rtoTimer = simnet.TimerHandle{}
	if c.state == stateClosed || c.state == stateSYNSent {
		return
	}
	if c.state == stateSYNReceived {
		// Retransmit SYN-ACK a few times, then give up silently.
		if c.rtoBackoff >= 4 {
			c.teardown(ErrConnTimeout)
			return
		}
		c.rtoBackoff++
		c.Retransmits++
		c.sampleValid = false // Karn
		c.transmit(netwire.FlagSYN|netwire.FlagACK, c.iss, c.rcvNxt, nil)
		c.armRTO(initialRTO << uint(c.rtoBackoff))
		return
	}
	if c.allAcked() {
		return
	}
	// Too many consecutive RTOs: peer is gone.
	if c.rtoBackoff >= 7 {
		c.teardown(ErrReset)
		return
	}
	c.rtoBackoff++
	c.ssthresh = max(c.inFlight()/2, 2*MSS)
	c.cwnd = MSS
	c.dupAcks = 0
	c.sampleValid = false // Karn: retransmitted segments give no samples
	// Go-back-N: rewind transmission to the oldest unacked byte.
	c.Retransmits++
	c.sndNxt = c.sndUna
	c.pump()
	if !c.rtoTimer.Scheduled() {
		c.armRTO(c.currentRTO())
	}
}

func (c *Conn) inFlight() int { return int(c.sndMax - c.sndUna) }

// allAcked reports whether everything sent (including FIN) is acked.
func (c *Conn) allAcked() bool { return c.sndUna == c.sndMax }

// segment processes one inbound segment for this connection.
func (c *Conn) segment(th *netwire.TCPHeader, payload []byte) {
	if c.state == stateClosed {
		return
	}
	if th.Flags&netwire.FlagRST != 0 {
		c.handleRST()
		return
	}
	switch c.state {
	case stateSYNSent:
		c.segSYNSent(th)
	case stateSYNReceived:
		c.segSYNReceived(th, payload)
	case stateEstablished, stateFINSent:
		c.segEstablished(th, payload)
	}
}

func (c *Conn) handleRST() {
	switch c.state {
	case stateSYNSent:
		c.teardown(ErrConnRefused)
	default:
		c.teardown(ErrReset)
	}
}

// segSYNSent handles the SYN-ACK on the client side.
func (c *Conn) segSYNSent(th *netwire.TCPHeader) {
	if th.Flags&(netwire.FlagSYN|netwire.FlagACK) != netwire.FlagSYN|netwire.FlagACK {
		return
	}
	if th.Ack != c.iss+1 {
		return
	}
	c.rtoTimer.Stop()
	if c.sampleValid {
		c.observeRTT(c.sched().Now().Sub(c.sampleAt))
		c.sampleValid = false
	}
	c.rcvNxt = th.Seq + 1
	c.sndUna = c.iss + 1
	c.sndNxt = c.iss + 1
	if seqLT(c.sndMax, c.sndNxt) {
		c.sndMax = c.sndNxt
	}
	c.peerWnd = th.Window
	c.state = stateEstablished
	c.transmit(netwire.FlagACK, c.sndNxt, c.rcvNxt, nil)
	if c.cb.OnConnect != nil {
		c.cb.OnConnect()
	}
	if c.closeRequested {
		c.queueFIN()
	}
	c.pump()
}

// segSYNReceived completes the server-side handshake. The first segment
// may already carry data.
func (c *Conn) segSYNReceived(th *netwire.TCPHeader, payload []byte) {
	if th.Flags&netwire.FlagSYN != 0 {
		// Duplicate SYN: re-answer.
		c.transmit(netwire.FlagSYN|netwire.FlagACK, c.iss, c.rcvNxt, nil)
		return
	}
	if th.Flags&netwire.FlagACK == 0 || th.Ack != c.iss+1 {
		return
	}
	c.rtoTimer.Stop()
	if c.sampleValid {
		c.observeRTT(c.sched().Now().Sub(c.sampleAt))
		c.sampleValid = false
	}
	c.rtoBackoff = 0
	c.sndUna = c.iss + 1
	c.sndNxt = c.iss + 1
	if seqLT(c.sndMax, c.sndNxt) {
		c.sndMax = c.sndNxt
	}
	c.peerWnd = th.Window
	c.state = stateEstablished
	c.stack.Accepted++
	if c.listener != nil && c.listener.Accept != nil {
		c.listener.Accept(c)
	}
	if c.cb.OnConnect != nil {
		c.cb.OnConnect()
	}
	// The handshake ACK may carry data.
	if len(payload) > 0 || th.Flags&netwire.FlagFIN != 0 {
		c.segEstablished(th, payload)
	}
}

// segEstablished handles data, ACKs, and FIN in the steady state.
func (c *Conn) segEstablished(th *netwire.TCPHeader, payload []byte) {
	if th.Flags&netwire.FlagSYN != 0 {
		// Duplicate SYN-ACK: our handshake ACK was lost. Re-ACK so
		// the peer leaves SYN-RECEIVED.
		c.transmit(netwire.FlagACK, c.sndNxt, c.rcvNxt, nil)
		return
	}
	if th.Flags&netwire.FlagACK != 0 {
		c.processAck(th)
		if c.state == stateClosed {
			return
		}
	}
	if len(payload) > 0 || th.Flags&netwire.FlagFIN != 0 {
		c.processData(th, payload)
	}
}

// processAck advances the send window and drives congestion control.
func (c *Conn) processAck(th *netwire.TCPHeader) {
	ack := th.Ack
	c.peerWnd = th.Window
	if seqLT(c.sndUna, ack) && seqLEQ(ack, c.sndMax) {
		acked := int(ack - c.sndUna)
		if c.sampleValid && seqLEQ(c.sampleSeq, ack) {
			c.observeRTT(c.stack.host.Now().Sub(c.sampleAt))
			c.sampleValid = false
		}
		c.sndUna = ack
		if seqLT(c.sndNxt, c.sndUna) {
			// A go-back-N rewind left sndNxt behind data the peer
			// has now acknowledged; resume from the ACK point.
			c.sndNxt = c.sndUna
		}
		c.dupAcks = 0
		c.rtoBackoff = 0
		// Slide the send buffer: drop fully acked bytes.
		dataAcked := acked
		if c.finQueued && ack == c.finAt+1 {
			dataAcked-- // the FIN's slot
		}
		if dataAcked > 0 {
			drop := dataAcked
			if drop > len(c.sndBuf) {
				drop = len(c.sndBuf)
			}
			c.sndBuf = c.sndBuf[drop:]
			c.iss += uint32(drop) // keep bufOffset mapping: iss+1 ↔ sndBuf[0]
		}
		// Congestion growth: slow start below ssthresh, else +MSS per
		// cwnd of acked data (approximated per-ACK).
		if c.cwnd < c.ssthresh {
			c.cwnd += acked
		} else {
			c.cwnd += max(MSS*acked/max(c.cwnd, 1), 1)
		}
		if c.cwnd > recvWindow {
			c.cwnd = recvWindow
		}
		if c.allAcked() {
			c.rtoTimer.Stop()
			if c.finQueued && c.peerFINDone() {
				c.teardown(nil)
				return
			}
		} else {
			c.armRTO(c.currentRTO())
		}
		c.pump()
		return
	}
	if ack == c.sndUna && !c.allAcked() {
		c.dupAcks++
		if c.dupAcks == 3 {
			// Fast retransmit: resend the oldest unacked segment.
			c.fastRetransmit()
		}
	}
}

// fastRetransmit resends the segment at sndUna and halves the window.
func (c *Conn) fastRetransmit() {
	c.ssthresh = max(c.inFlight()/2, 2*MSS)
	c.cwnd = c.ssthresh
	c.sampleValid = false // Karn
	c.Retransmits++
	if c.finQueued && c.sndUna == c.finAt {
		c.transmit(netwire.FlagFIN|netwire.FlagACK, c.sndUna, c.rcvNxt, nil)
		return
	}
	off := c.bufOffset(c.sndUna)
	if off < 0 || off >= len(c.sndBuf) {
		return
	}
	n := len(c.sndBuf) - off
	if n > MSS {
		n = MSS
	}
	c.transmit(netwire.FlagACK|netwire.FlagPSH, c.sndUna, c.rcvNxt, c.sndBuf[off:off+n])
}

// peerFINDone reports whether the peer's FIN has been received and
// consumed.
func (c *Conn) peerFINDone() bool {
	return c.peerFINSeen && c.rcvNxt == c.peerFIN+1
}

// processData reassembles in-order data and handles the peer's FIN.
func (c *Conn) processData(th *netwire.TCPHeader, payload []byte) {
	seq := th.Seq
	if th.Flags&netwire.FlagFIN != 0 {
		finSeq := seq + uint32(len(payload))
		if !c.peerFINSeen {
			c.peerFINSeen = true
			c.peerFIN = finSeq
		}
	}
	if len(payload) > 0 {
		if seqLEQ(seq, c.rcvNxt) && seqLT(c.rcvNxt, seq+uint32(len(payload))) {
			// Overlapping or exactly in order: take the new part.
			skip := int(c.rcvNxt - seq)
			c.deliver(payload[skip:])
		} else if seqLT(c.rcvNxt, seq) {
			// Future segment: buffer a copy. The map is built lazily —
			// most connections never see reordering.
			if c.ooo == nil {
				c.ooo = make(map[uint32][]byte)
			}
			cp := make([]byte, len(payload))
			copy(cp, payload)
			c.ooo[seq] = cp
		}
		// Else: duplicate of already-delivered data; just re-ACK.
	}
	// Drain any out-of-order segments now contiguous.
	for {
		p, ok := c.ooo[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.ooo, c.rcvNxt)
		c.deliver(p)
	}
	// Consume FIN if it is next.
	finConsumed := false
	if c.peerFINSeen && c.rcvNxt == c.peerFIN {
		c.rcvNxt++
		finConsumed = true
	}
	// ACK everything received so far.
	c.transmit(netwire.FlagACK, c.sndNxt, c.rcvNxt, nil)
	if finConsumed {
		if !c.finQueued {
			// Passive close: send our FIN after our data.
			c.queueFIN()
			c.pump()
		}
		if c.finQueued && c.allAcked() && c.peerFINDone() {
			c.teardown(nil)
		}
	}
}

// deliver hands in-order bytes to the application.
func (c *Conn) deliver(p []byte) {
	c.rcvNxt += uint32(len(p))
	c.BytesIn += len(p)
	if c.cb.OnData != nil {
		c.cb.OnData(p)
	}
}

// SetCallbacks replaces the connection's callbacks; used by server
// applications that receive the Conn from Accept before wiring handlers.
func (c *Conn) SetCallbacks(cb Callbacks) { c.cb = cb }
