package main

import (
	"encoding/binary"
	"fmt"
	"io"

	"webfail/internal/dataset"
	"webfail/internal/measure"
)

// tally counts the output checks of one benchmark invocation. A check
// that fails — a layer call that errors, a count or digest that
// disagrees — is a failed operation in the result, never a panic.
type tally struct {
	run, failed int
	log         io.Writer
}

// check records one check; failures are explained on the log.
func (t *tally) check(name string, ok bool, format string, args ...any) bool {
	t.run++
	if !ok {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: check %s failed: %s\n", name, fmt.Sprintf(format, args...))
	}
	return ok
}

// errCheck records a layer call's outcome as a check.
func (t *tally) errCheck(name string, err error) bool {
	return t.check(name, err == nil, "%v", err)
}

// streamDigest is an order-sensitive digest of a record stream that
// composes over concatenation: the digests of contiguous client ranges,
// combined in shard order, equal the digest of the canonical stream for
// any shard count.
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

// then returns the digest of d's stream followed by e's.
func (d streamDigest) then(e streamDigest) streamDigest {
	p, b := uint64(1), uint64(digestBase)
	for k := e.n; k > 0; k >>= 1 {
		if k&1 == 1 {
			p *= b
		}
		b *= b
	}
	return streamDigest{h: d.h*p + e.h, n: d.n + e.n}
}

func (d streamDigest) String() string { return fmt.Sprintf("%016x/%d", d.h, d.n) }

// concat folds per-shard digests in shard order.
func concat(ds []streamDigest) streamDigest {
	var out streamDigest
	for _, d := range ds {
		out = out.then(d)
	}
	return out
}

// recordHash hashes every field of a record.
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

// sourceDigest digests every stored record of src in canonical order.
func sourceDigest(src dataset.RecordSource) (streamDigest, error) {
	var d streamDigest
	err := dataset.AllRecords(src, func(r *measure.Record) error {
		d.add(r)
		return nil
	})
	return d, err
}
