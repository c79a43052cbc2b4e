package dnswire

import (
	"net/netip"
	"reflect"
	"testing"
)

// FuzzDecode hardens the message parser against adversarial input: no
// panic, no unbounded allocation, and a decode into a message that last
// held a larger one must equal a fresh decode — no stale question or
// record survives storage reuse.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid messages of each shape plus known edge cases.
	q := newQuery(1, "www.example.com", TypeA, true)
	b, _ := Encode(q)
	f.Add(b)
	resp := newResponse(q, RCodeNoError, true)
	resp.Answers = append(resp.Answers,
		RR{Name: "www.example.com", Type: TypeCNAME, TTL: 60, Target: "cdn.example.net"},
		RR{Name: "cdn.example.net", Type: TypeA, TTL: 60, A: netip.MustParseAddr("10.0.0.1")},
	)
	b2, _ := Encode(resp)
	f.Add(b2)
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	// Self-pointing name.
	f.Add(append(append(make([]byte, 12), 0xC0, 12), 0, 1, 0, 1))

	// larger fills every section, so a decode into the message that last
	// held it shows any stale question or record.
	larger := newResponse(newQuery(9, "www.example.com", TypeA, true), RCodeNoError, false)
	larger.Questions = append(larger.Questions, Question{Name: "mail.example.com", Type: TypeA})
	for i := 0; i < 4; i++ {
		larger.Answers = append(larger.Answers, RR{Name: "www.example.com", Type: TypeA, TTL: 60, A: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})})
		larger.Authority = append(larger.Authority, RR{Name: "example.com", Type: TypeNS, TTL: 60, Target: "ns.example.com"})
		larger.Additional = append(larger.Additional, RR{Name: "ns.example.com", Type: TypeCNAME, TTL: 60, Target: "cdn.example.net"})
	}
	largerWire, err := Encode(larger)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		var dec Decoder
		var reused Message
		if err := dec.Decode(largerWire, &reused); err != nil {
			t.Fatal(err)
		}
		if rerr := dec.Decode(data, &reused); (rerr == nil) != (err == nil) {
			t.Fatalf("fresh decode error %v, reused decode error %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(&reused, m) {
			t.Fatalf("decode into a reused message = %+v, fresh = %+v", reused, *m)
		}
		// Decoded names must be canonical and bounded.
		for _, q := range m.Questions {
			if len(q.Name) > 253 {
				t.Fatalf("oversized question name: %d", len(q.Name))
			}
		}
		for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
			for _, rr := range sec {
				if len(rr.Name) > 253 || len(rr.Target) > 253 {
					t.Fatalf("oversized RR name")
				}
			}
		}
	})
}
