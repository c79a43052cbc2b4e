package dnswire

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func newQuery(id uint16, name string, typ RRType, recursionDesired bool) *Message {
	m := new(Message)
	m.SetQuery(id, name, typ, recursionDesired)
	return m
}

func newResponse(q *Message, rcode RCode, authoritative bool) *Message {
	m := new(Message)
	m.SetResponse(q, rcode, authoritative)
	return m
}

func mustEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestQueryRoundTrip(t *testing.T) {
	q := newQuery(1234, "WWW.Example.COM.", TypeA, true)
	b := mustEncode(t, q)
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 1234 || got.Header.Response || !got.Header.RecursionDesired {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "www.example.com" || got.Questions[0].Type != TypeA {
		t.Errorf("questions = %+v", got.Questions)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := newQuery(77, "www.sina.com.cn", TypeA, true)
	resp := newResponse(q, RCodeNoError, true)
	resp.Answers = append(resp.Answers,
		RR{Name: "www.sina.com.cn", Type: TypeCNAME, TTL: 300, Target: "sina.cdn.example.net"},
		RR{Name: "sina.cdn.example.net", Type: TypeA, TTL: 60, A: netip.MustParseAddr("202.108.33.60")},
	)
	resp.Authority = append(resp.Authority,
		RR{Name: "sina.com.cn", Type: TypeNS, TTL: 3600, Target: "ns1.sina.com.cn"})
	resp.Additional = append(resp.Additional,
		RR{Name: "ns1.sina.com.cn", Type: TypeA, TTL: 3600, A: netip.MustParseAddr("202.108.33.1")})
	b := mustEncode(t, resp)
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Header.Response || !got.Header.Authoritative || got.Header.RCode != RCodeNoError {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Answers) != 2 || got.Answers[0].Target != "sina.cdn.example.net" {
		t.Fatalf("answers = %+v", got.Answers)
	}
	if got.Answers[1].A != netip.MustParseAddr("202.108.33.60") {
		t.Errorf("A = %v", got.Answers[1].A)
	}
	if len(got.Authority) != 1 || got.Authority[0].Target != "ns1.sina.com.cn" {
		t.Errorf("authority = %+v", got.Authority)
	}
	if len(got.Additional) != 1 {
		t.Errorf("additional = %+v", got.Additional)
	}
}

func TestCompressionShrinksAndRoundTrips(t *testing.T) {
	q := newQuery(1, "www.example.com", TypeA, false)
	resp := newResponse(q, RCodeNoError, true)
	for i := 0; i < 8; i++ {
		resp.Answers = append(resp.Answers, RR{
			Name: "www.example.com", Type: TypeA, TTL: 60,
			A: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
		})
	}
	b := mustEncode(t, resp)
	// With compression each repeated name costs 2 bytes instead of 17.
	uncompressed := 12 + (17 + 4) + 8*(17+10+4)
	if len(b) >= uncompressed {
		t.Errorf("compressed size %d not smaller than uncompressed %d", len(b), uncompressed)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range got.Answers {
		if rr.Name != "www.example.com" {
			t.Errorf("answer %d name = %q", i, rr.Name)
		}
	}
}

func TestCompressionSharedSuffix(t *testing.T) {
	q := newQuery(2, "a.example.com", TypeA, false)
	resp := newResponse(q, RCodeNoError, true)
	resp.Answers = append(resp.Answers,
		RR{Name: "b.example.com", Type: TypeA, TTL: 1, A: netip.MustParseAddr("1.2.3.4")})
	got, err := Decode(mustEncode(t, resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Name != "b.example.com" {
		t.Errorf("name = %q", got.Answers[0].Name)
	}
}

func TestRCodes(t *testing.T) {
	for _, rc := range []RCode{RCodeNoError, RCodeServFail, RCodeNXDomain, RCodeRefused} {
		q := newQuery(9, "www.brazzil.com", TypeA, true)
		resp := newResponse(q, rc, false)
		got, err := Decode(mustEncode(t, resp))
		if err != nil {
			t.Fatal(err)
		}
		if got.Header.RCode != rc {
			t.Errorf("rcode = %v, want %v", got.Header.RCode, rc)
		}
	}
}

func TestRCodeStrings(t *testing.T) {
	if RCodeNXDomain.String() != "NXDOMAIN" || RCodeServFail.String() != "SERVFAIL" {
		t.Error("RCode strings wrong")
	}
	if RCode(12).String() != "RCODE12" {
		t.Errorf("unknown rcode string = %q", RCode(12).String())
	}
	if TypeA.String() != "A" || TypeNS.String() != "NS" || TypeCNAME.String() != "CNAME" {
		t.Error("RRType strings wrong")
	}
}

func TestDecodeTruncated(t *testing.T) {
	q := newQuery(5, "www.example.com", TypeA, true)
	b := mustEncode(t, q)
	for i := 0; i < len(b); i++ {
		if _, err := Decode(b[:i]); err == nil {
			t.Errorf("Decode accepted truncation at %d", i)
		}
	}
}

func TestDecodePointerLoop(t *testing.T) {
	// Hand-craft a message whose question name is a self-pointer.
	b := make([]byte, 12)
	b[5] = 1                  // qdcount = 1
	b = append(b, 0xC0, 12)   // pointer to itself
	b = append(b, 0, 1, 0, 1) // type A, class IN
	if _, err := Decode(b); err == nil {
		t.Error("self-pointing name accepted")
	}
}

func TestDecodeForwardPointerRejected(t *testing.T) {
	b := make([]byte, 12)
	b[5] = 1
	b = append(b, 0xC0, 30) // forward pointer
	b = append(b, 0, 1, 0, 1)
	b = append(b, make([]byte, 20)...)
	if _, err := Decode(b); err == nil {
		t.Error("forward pointer accepted")
	}
}

func TestNameLimits(t *testing.T) {
	long := strings.Repeat("a", 64) + ".com"
	if _, err := Encode(newQuery(1, long, TypeA, false)); err == nil {
		t.Error("63-octet label limit not enforced")
	}
	huge := strings.TrimSuffix(strings.Repeat("abcdefg.", 40), ".")
	if _, err := Encode(newQuery(1, huge, TypeA, false)); err == nil {
		t.Error("255-octet name limit not enforced")
	}
}

func TestEncodeRejectsBadA(t *testing.T) {
	q := newQuery(1, "x.com", TypeA, false)
	resp := newResponse(q, RCodeNoError, true)
	resp.Answers = []RR{{Name: "x.com", Type: TypeA, A: netip.MustParseAddr("::1")}}
	if _, err := Encode(resp); err == nil {
		t.Error("IPv6 A record accepted")
	}
	resp.Answers = []RR{{Name: "x.com", Type: TypeSOA}}
	if _, err := Encode(resp); err == nil {
		t.Error("unencodable type accepted")
	}
}

func TestCanonical(t *testing.T) {
	cases := map[string]string{
		"WWW.Example.COM.": "www.example.com",
		"already.lower":    "already.lower",
		".":                "",
		"":                 "",
	}
	for in, want := range cases {
		if got := Canonical(in); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Arbitrary well-formed messages survive an encode/decode cycle.
	f := func(id uint16, rcodeRaw uint8, labels [][]byte, addrs [][4]byte) bool {
		name := buildName(labels)
		if name == "" {
			name = "x.com"
		}
		m := newQuery(id, name, TypeA, true)
		resp := newResponse(m, RCode(rcodeRaw&0xf), true)
		if len(addrs) > 20 {
			addrs = addrs[:20]
		}
		for _, a := range addrs {
			resp.Answers = append(resp.Answers, RR{Name: name, Type: TypeA, TTL: 30, A: netip.AddrFrom4(a)})
		}
		b, err := Encode(resp)
		if err != nil {
			return true // name too long etc. is fine to reject
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		if got.Header.ID != id || len(got.Answers) != len(addrs) {
			return false
		}
		for i, a := range addrs {
			if got.Answers[i].A != netip.AddrFrom4(a) {
				return false
			}
		}
		return got.Questions[0].Name == Canonical(name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// buildName assembles a DNS name from fuzz labels, sanitizing to valid
// label charset so only structural properties are exercised.
func buildName(labels [][]byte) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		if len(l) == 0 {
			continue
		}
		if len(l) > 20 {
			l = l[:20]
		}
		s := make([]byte, len(l))
		for i, c := range l {
			s[i] = 'a' + c%26
		}
		parts = append(parts, string(s))
		if len(parts) == 6 {
			break
		}
	}
	return strings.Join(parts, ".")
}

func TestDecodeGarbage(t *testing.T) {
	// Random garbage must never panic.
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	q := newQuery(42, "www.iitb.ac.in", TypeA, true)
	a := mustEncode(t, q)
	b := mustEncode(t, q)
	if !bytes.Equal(a, b) {
		t.Error("encoding not deterministic")
	}
}

// referral is a TLD-style referral: no answers, two NS records in the
// Authority section and their glue in the Additional section.
func referral() *Message {
	resp := newResponse(newQuery(7, "www.sina.com.cn", TypeA, false), RCodeNoError, false)
	resp.Authority = append(resp.Authority,
		RR{Name: "sina.com.cn", Type: TypeNS, TTL: 86400, Target: "ns1.sina.com.cn"},
		RR{Name: "sina.com.cn", Type: TypeNS, TTL: 86400, Target: "ns2.sina.com.cn"})
	resp.Additional = append(resp.Additional,
		RR{Name: "ns1.sina.com.cn", Type: TypeA, TTL: 86400, A: netip.MustParseAddr("202.108.33.1")},
		RR{Name: "ns2.sina.com.cn", Type: TypeA, TTL: 86400, A: netip.MustParseAddr("202.108.33.2")})
	return resp
}

// TestReferralZeroAllocs pins the steady state of the packet engine's
// message path: with a warm encoder, message and intern table, encoding
// and decoding a referral response allocate nothing.
func TestReferralZeroAllocs(t *testing.T) {
	resp := referral()
	var enc Encoder
	var dec Decoder
	var m Message
	wire := mustEncode(t, resp)
	if _, err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(wire, &m); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := enc.Encode(resp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Encoder.Encode allocates %.1f times per referral, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := dec.Decode(wire, &m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Decoder.Decode allocates %.1f times per referral, want 0", allocs)
	}
	if !reflect.DeepEqual(&m, mustDecode(t, wire)) {
		t.Errorf("warm decode = %+v, want %+v", m, *mustDecode(t, wire))
	}
}

// TestInternTableBounded feeds a decoder more distinct junk names than its
// table holds: the table stops at its bound, and names past it still
// decode correctly.
func TestInternTableBounded(t *testing.T) {
	var dec Decoder
	var m Message
	for i := 0; i < maxNames+100; i++ {
		name := fmt.Sprintf("junk%d.Example.COM", i)
		if err := dec.Decode(mustEncode(t, newQuery(1, name, TypeA, true)), &m); err != nil {
			t.Fatal(err)
		}
		if got, want := m.Questions[0].Name, Canonical(name); got != want {
			t.Fatalf("name %d decoded as %q, want %q", i, got, want)
		}
	}
	if len(dec.names) != maxNames {
		t.Errorf("intern table holds %d names, want its bound %d", len(dec.names), maxNames)
	}
}

func mustDecode(t *testing.T, b []byte) *Message {
	t.Helper()
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
