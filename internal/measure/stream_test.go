package measure_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// streamDigest is an order-sensitive polynomial digest of a record
// stream: h = h*digestBase + hash(record) mod 2^64, with the record
// count beside it.
type streamDigest struct {
	h uint64
	n int64
}

// digestBase is the odd multiplier of the polynomial digest (mod 2^64).
const digestBase = 0x9e3779b97f4a7c15

func (d *streamDigest) add(r *measure.Record) {
	d.h = d.h*digestBase + recordHash(r)
	d.n++
}

func (d streamDigest) String() string { return fmt.Sprintf("%016x/%d", d.h, d.n) }

// recordHash hashes every field of a record, in declaration order.
func recordHash(r *measure.Record) uint64 {
	ip := r.ReplicaIP.As16()
	proxied := uint64(0)
	if r.Proxied {
		proxied = 1
	}
	words := [...]uint64{
		uint64(uint32(r.ClientIdx))<<32 | uint64(uint32(r.SiteIdx)),
		uint64(r.At),
		uint64(r.Category)<<56 | uint64(r.DNS)<<48 | uint64(r.Stage)<<40 | uint64(r.FailKind)<<32 |
			uint64(uint8(r.Redirects))<<24 | uint64(r.ReplicaIP.BitLen())<<8 | proxied,
		uint64(r.DNSTime),
		uint64(uint16(r.Conns))<<48 | uint64(uint16(r.StatusCode))<<32 | uint64(uint32(r.Bytes)),
		uint64(r.Elapsed),
		uint64(uint16(r.DataPkts))<<16 | uint64(uint16(r.Retransmits)),
		binary.LittleEndian.Uint64(ip[:8]),
		binary.LittleEndian.Uint64(ip[8:]),
	}
	h := uint64(14695981039346656037)
	for _, w := range words {
		h = mix64(h ^ w)
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// TestFastRecordStreamPinned pins fast mode's whole record stream, every
// field of every performed transaction in order, on each checked-in
// scenario's full roster at the CLI's default seeds. The goldens print
// only artifacts and the serial/parallel tests compare the code with
// itself, so a change that moved one successful record's DNSTime or
// Retransmits could pass both; it cannot pass this. A change meant to
// move records must update the digests and say why.
func TestFastRecordStreamPinned(t *testing.T) {
	pins := map[string]struct {
		hours  int64
		digest string
	}{
		"10k-chaos":        {1, "2b9d454689e9af42/1219648"},
		"cascading-outage": {6, "28b361d3e5a1f6ae/151368"},
		"cdn-flap":         {6, "9c49e4dd97c683f3/345641"},
		"paper-default":    {6, "251280b56ccc3e26/209065"},
	}
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			pin, ok := pins[name]
			if !ok {
				t.Fatalf("no pinned digest for scenario %q", name)
			}
			h := pin.hours
			spec, err := scenario.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := spec.Topology(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			end := simnet.FromHours(h)
			params, err := spec.Params(2005, 0, end)
			if err != nil {
				t.Fatal(err)
			}
			cfg := measure.Config{Topo: topo, Scenario: workload.BuildScenario(topo, params), Seed: 1, Start: 0, End: end}
			var d streamDigest
			if err := measure.Run(cfg, d.add); err != nil {
				t.Fatal(err)
			}
			if d.String() != pin.digest {
				t.Errorf("%s, %d h: record stream digest %s, want %s", name, h, d, pin.digest)
			}
		})
	}
}
