// Package dnswire implements the RFC 1035 DNS message wire format used by
// the simulated resolver stack: header, question and resource-record
// sections, and domain-name encoding with message compression.
//
// The subset covers what the study's web-access workload exercises — A, NS,
// and CNAME records, recursive and iterative queries, and the NOERROR /
// SERVFAIL / NXDOMAIN response codes that drive the paper's DNS failure
// sub-classification (Section 2.1).
package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// RCode is a DNS response code.
type RCode uint8

// Response codes observed in the study. SERVFAIL and NXDOMAIN are the
// "Error response" DNS failure sub-class; the paper names both explicitly
// (Section 4.2: buggy or misconfigured authoritative servers).
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// RRType is a resource record type.
type RRType uint16

// Record types used by the simulated hierarchy.
const (
	TypeA     RRType = 1
	TypeNS    RRType = 2
	TypeCNAME RRType = 5
	TypeSOA   RRType = 6
)

func (t RRType) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// ClassIN is the only class the simulator uses.
const ClassIN uint16 = 1

// Decoding errors.
var (
	ErrTruncatedMsg  = errors.New("dnswire: truncated message")
	ErrBadName       = errors.New("dnswire: malformed domain name")
	ErrPointerLoop   = errors.New("dnswire: compression pointer loop")
	ErrNameTooLong   = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong  = errors.New("dnswire: label exceeds 63 octets")
	ErrTooManyRRs    = errors.New("dnswire: unreasonable record count")
	ErrRDataMismatch = errors.New("dnswire: rdata length mismatch")
)

// Header is the 12-byte DNS message header.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is a query for (Name, Type).
type Question struct {
	Name string
	Type RRType
}

// RR is a resource record. For TypeA, A holds the address; for TypeNS and
// TypeCNAME, Target holds the referenced name.
type RR struct {
	Name   string
	Type   RRType
	TTL    uint32
	A      netip.Addr
	Target string
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Canonical lower-cases and removes any trailing dot; all names in this
// package are stored canonically.
func Canonical(name string) string {
	name = strings.TrimSuffix(strings.ToLower(name), ".")
	return name
}

// SetQuery makes m a standard query for (name, typ), reusing m's section
// storage.
func (m *Message) SetQuery(id uint16, name string, typ RRType, recursionDesired bool) {
	m.Header = Header{ID: id, RecursionDesired: recursionDesired}
	m.Questions = append(m.Questions[:0], Question{Name: Canonical(name), Type: typ})
	m.Answers, m.Authority, m.Additional = m.Answers[:0], m.Authority[:0], m.Additional[:0]
}

// SetResponse makes m a response skeleton echoing q's ID, RD bit and
// questions, reusing m's section storage. m and q must be distinct.
func (m *Message) SetResponse(q *Message, rcode RCode, authoritative bool) {
	m.Header = Header{
		ID:                 q.Header.ID,
		Response:           true,
		Authoritative:      authoritative,
		RecursionDesired:   q.Header.RecursionDesired,
		RecursionAvailable: true,
		RCode:              rcode,
	}
	m.Questions = append(m.Questions[:0], q.Questions...)
	m.Answers, m.Authority, m.Additional = m.Answers[:0], m.Authority[:0], m.Additional[:0]
}

// Encoder serializes messages with name compression into a buffer it
// owns. The suffix table is a small slice rather than a map: messages
// carry a handful of names, and a linear scan beats map hashing. Both
// are reused across messages, so a warm encoder allocates nothing. The
// zero value is ready to use.
type Encoder struct {
	buf     []byte
	offsets []nameOffset
}

// nameOffset records where a canonical name suffix was first encoded.
type nameOffset struct {
	name string
	off  int
}

func (e *Encoder) lookup(name string) (int, bool) {
	for i := range e.offsets {
		if e.offsets[i].name == name {
			return e.offsets[i].off, true
		}
	}
	return 0, false
}

// writeName appends name in wire format, using a compression pointer for
// the longest previously-written suffix.
func (e *Encoder) writeName(name string) error {
	name = Canonical(name)
	if len(name) > 253 {
		return ErrNameTooLong
	}
	for name != "" {
		if off, ok := e.lookup(name); ok && off < 0x4000 {
			e.buf = binary.BigEndian.AppendUint16(e.buf, 0xC000|uint16(off))
			return nil
		}
		label, rest, _ := strings.Cut(name, ".")
		if label == "" {
			return ErrBadName
		}
		if len(label) > 63 {
			return ErrLabelTooLong
		}
		if off := len(e.buf); off < 0x4000 {
			e.offsets = append(e.offsets, nameOffset{name: name, off: off})
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
		name = rest
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *Encoder) writeRR(rr *RR) error {
	if err := e.writeName(rr.Name); err != nil {
		return err
	}
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(rr.Type))
	e.buf = binary.BigEndian.AppendUint16(e.buf, ClassIN)
	e.buf = binary.BigEndian.AppendUint32(e.buf, rr.TTL)
	lenAt := len(e.buf)
	e.buf = append(e.buf, 0, 0) // rdlength placeholder
	switch rr.Type {
	case TypeA:
		if !rr.A.Is4() {
			return fmt.Errorf("dnswire: A record for %q with non-IPv4 address", rr.Name)
		}
		a4 := rr.A.As4()
		e.buf = append(e.buf, a4[:]...)
	case TypeNS, TypeCNAME:
		if err := e.writeName(rr.Target); err != nil {
			return err
		}
	default:
		return fmt.Errorf("dnswire: cannot encode %v record", rr.Type)
	}
	binary.BigEndian.PutUint16(e.buf[lenAt:], uint16(len(e.buf)-lenAt-2))
	return nil
}

// Encode serializes m. The result aliases the encoder's buffer and is
// valid until the next call.
func (e *Encoder) Encode(m *Message) ([]byte, error) {
	if len(m.Questions) > 0xffff || len(m.Answers) > 0xffff ||
		len(m.Authority) > 0xffff || len(m.Additional) > 0xffff {
		return nil, ErrTooManyRRs
	}
	if e.buf == nil {
		e.buf = make([]byte, 0, 512)
	}
	e.offsets = e.offsets[:0]
	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[0:], m.Header.ID)
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.Opcode&0xf) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode & 0xf)
	binary.BigEndian.PutUint16(hdr[2:], flags)
	binary.BigEndian.PutUint16(hdr[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(hdr[6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(hdr[8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(hdr[10:], uint16(len(m.Additional)))
	e.buf = append(e.buf[:0], hdr[:]...)

	for i := range m.Questions {
		q := &m.Questions[i]
		if err := e.writeName(q.Name); err != nil {
			return nil, err
		}
		e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(q.Type))
		e.buf = binary.BigEndian.AppendUint16(e.buf, ClassIN)
	}
	for _, sec := range [...][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if err := e.writeRR(&sec[i]); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

// Encode serializes the message into a fresh buffer.
func Encode(m *Message) ([]byte, error) {
	var e Encoder
	return e.Encode(m)
}

// maxNames bounds a Decoder's intern table. A simulated endpoint sees a
// few names per website it serves or resolves, far below the bound;
// past it, names decode as fresh strings and the table stops growing, so
// junk input cannot grow it without limit.
const maxNames = 4096

// Decoder decodes messages into caller-owned Messages. It interns
// decoded names in a table keyed by their raw wire bytes, so a name seen
// before decodes to the same canonical string without allocating. The
// zero value is ready to use.
type Decoder struct {
	names map[string]string
}

// intern returns the canonical form of the raw decoded name.
func (d *Decoder) intern(raw []byte) string {
	if s, ok := d.names[string(raw)]; ok {
		return s
	}
	key := string(raw)
	s := Canonical(key)
	if len(d.names) < maxNames {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		d.names[key] = s
	}
	return s
}

// parser decodes a message, following compression pointers safely.
type parser struct {
	d   *Decoder
	buf []byte
	pos int
}

func (p *parser) uint16() (uint16, error) {
	if p.pos+2 > len(p.buf) {
		return 0, ErrTruncatedMsg
	}
	v := binary.BigEndian.Uint16(p.buf[p.pos:])
	p.pos += 2
	return v, nil
}

func (p *parser) uint32() (uint32, error) {
	if p.pos+4 > len(p.buf) {
		return 0, ErrTruncatedMsg
	}
	v := binary.BigEndian.Uint32(p.buf[p.pos:])
	p.pos += 4
	return v, nil
}

// name reads a (possibly compressed) domain name starting at p.pos,
// advancing p.pos past its in-place encoding. The labels accumulate in a
// stack scratch buffer, and the intern table turns them into the
// canonical name.
func (p *parser) name() (string, error) {
	var scratch [320]byte
	raw, next, err := appendName(scratch[:0], p.buf, p.pos, 0)
	if err != nil {
		return "", err
	}
	p.pos = next
	return p.d.intern(raw), nil
}

// appendName appends the labels of the name at off to out, dot-joined.
// It returns the extended slice and the offset just past the name's
// in-place bytes. depth guards against pointer loops.
func appendName(out, buf []byte, off, depth int) ([]byte, int, error) {
	if depth > 32 {
		return nil, 0, ErrPointerLoop
	}
	jumped := false
	next := off
	for {
		if off >= len(buf) {
			return nil, 0, ErrTruncatedMsg
		}
		c := buf[off]
		switch {
		case c == 0:
			if !jumped {
				next = off + 1
			}
			return out, next, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(buf) {
				return nil, 0, ErrTruncatedMsg
			}
			ptr := int(binary.BigEndian.Uint16(buf[off:]) & 0x3FFF)
			if ptr >= off {
				// Forward pointers enable loops; RFC 1035
				// compression only points backward.
				return nil, 0, ErrPointerLoop
			}
			if !jumped {
				next = off + 2
				jumped = true
			}
			// The recursive call prepends its own separator when
			// out already holds labels.
			rest, _, err := appendName(out, buf, ptr, depth+1)
			if err != nil {
				return nil, 0, err
			}
			if len(rest) > 253 {
				return nil, 0, ErrNameTooLong
			}
			return rest, next, nil
		case c&0xC0 != 0:
			return nil, 0, ErrBadName
		default:
			n := int(c)
			if off+1+n > len(buf) {
				return nil, 0, ErrTruncatedMsg
			}
			if len(out) > 0 {
				out = append(out, '.')
			}
			out = append(out, buf[off+1:off+1+n]...)
			if len(out) > 253 {
				return nil, 0, ErrNameTooLong
			}
			off += 1 + n
			if !jumped {
				next = off
			}
		}
	}
}

func (p *parser) rr() (RR, error) {
	var rr RR
	name, err := p.name()
	if err != nil {
		return rr, err
	}
	rr.Name = name
	t, err := p.uint16()
	if err != nil {
		return rr, err
	}
	rr.Type = RRType(t)
	if _, err := p.uint16(); err != nil { // class
		return rr, err
	}
	ttl, err := p.uint32()
	if err != nil {
		return rr, err
	}
	rr.TTL = ttl
	rdlen, err := p.uint16()
	if err != nil {
		return rr, err
	}
	end := p.pos + int(rdlen)
	if end > len(p.buf) {
		return rr, ErrTruncatedMsg
	}
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return rr, ErrRDataMismatch
		}
		rr.A = netip.AddrFrom4([4]byte(p.buf[p.pos:end]))
	case TypeNS, TypeCNAME:
		target, err := p.name()
		if err != nil {
			return rr, err
		}
		if p.pos != end {
			return rr, ErrRDataMismatch
		}
		rr.Target = target
	}
	p.pos = end
	return rr, nil
}

// reuse returns s emptied with room for n elements, keeping its storage
// when large enough. The result is never nil, so a message decoded into
// recycled storage is deeply equal to one decoded fresh.
func reuse[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Decode parses buf into m, reusing m's section storage. On success every
// field of m is overwritten; on error m's contents are unspecified. The
// strings in m are immutable and may be kept, but m's slices are rewritten
// by the next Decode into m.
func (d *Decoder) Decode(buf []byte, m *Message) error {
	if len(buf) < 12 {
		return ErrTruncatedMsg
	}
	flags := binary.BigEndian.Uint16(buf[2:])
	m.Header = Header{
		ID:                 binary.BigEndian.Uint16(buf[0:]),
		Response:           flags&(1<<15) != 0,
		Opcode:             uint8(flags >> 11 & 0xf),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xf),
	}
	qd := int(binary.BigEndian.Uint16(buf[4:]))
	an := int(binary.BigEndian.Uint16(buf[6:]))
	ns := int(binary.BigEndian.Uint16(buf[8:]))
	ar := int(binary.BigEndian.Uint16(buf[10:]))
	if qd+an+ns+ar > 1024 {
		return ErrTooManyRRs
	}

	p := parser{d: d, buf: buf, pos: 12}
	m.Questions = reuse(m.Questions, qd)
	for i := 0; i < qd; i++ {
		name, err := p.name()
		if err != nil {
			return err
		}
		t, err := p.uint16()
		if err != nil {
			return err
		}
		if _, err := p.uint16(); err != nil { // class
			return err
		}
		m.Questions = append(m.Questions, Question{Name: name, Type: RRType(t)})
	}
	var err error
	if m.Answers, err = p.rrs(m.Answers, an); err != nil {
		return err
	}
	if m.Authority, err = p.rrs(m.Authority, ns); err != nil {
		return err
	}
	m.Additional, err = p.rrs(m.Additional, ar)
	return err
}

// rrs decodes a section of n records into the reused storage of sec.
func (p *parser) rrs(sec []RR, n int) ([]RR, error) {
	sec = reuse(sec, n)
	for i := 0; i < n; i++ {
		rr, err := p.rr()
		if err != nil {
			return sec, err
		}
		sec = append(sec, rr)
	}
	return sec, nil
}

// Decode parses a DNS message into a fresh Message.
func Decode(buf []byte) (*Message, error) {
	var d Decoder
	m := new(Message)
	if err := d.Decode(buf, m); err != nil {
		return nil, err
	}
	return m, nil
}
