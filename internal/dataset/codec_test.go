package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// codecRecords builds a deterministic record batch exercising every
// field, including the three ReplicaIP shapes (invalid, IPv4, IPv6 and
// 4-in-6), in canonical order. Internal twin of the external tests'
// generator — this package's tests need it without an import cycle.
func codecRecords(seed int64, n, clients int) []measure.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]measure.Record, n)
	for i := range recs {
		r := &recs[i]
		r.ClientIdx = int32(rng.Intn(clients))
		r.SiteIdx = int32(rng.Intn(40))
		r.At = simnet.Time(rng.Int63n(int64(1000 * time.Hour)))
		r.Category = workload.Category(rng.Intn(4))
		r.Proxied = rng.Intn(4) == 0
		r.DNS = measure.DNSOutcome(rng.Intn(5))
		r.DNSTime = time.Duration(rng.Int63n(int64(5 * time.Second)))
		r.Stage = httpsim.Stage(rng.Intn(4))
		r.FailKind = httpsim.ConnFailKind(rng.Intn(4))
		r.Conns = int16(rng.Intn(6))
		r.StatusCode = int16(200 + rng.Intn(300))
		r.Bytes = rng.Int31n(1 << 20)
		r.Redirects = int8(rng.Intn(3))
		switch rng.Intn(4) {
		case 0:
			r.ReplicaIP = netip.AddrFrom4([4]byte{byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(250))})
		case 1:
			var a [16]byte
			rng.Read(a[:])
			a[0] = 0x20
			r.ReplicaIP = netip.AddrFrom16(a)
		case 2:
			r.ReplicaIP = netip.AddrFrom16(netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(256))}).As16())
		}
		r.Elapsed = time.Duration(rng.Int63n(int64(time.Minute)))
		r.DataPkts = int16(rng.Intn(200))
		r.Retransmits = int16(rng.Intn(20))
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].ClientIdx < recs[j].ClientIdx })
	return recs
}

// TestChunkCodecRoundTrip is the codec-level property: random batches
// survive encode→decode bit-exactly through scratch reused across
// batches (the pipeline workers' usage pattern), including extreme
// field values varints must not mangle.
func TestChunkCodecRoundTrip(t *testing.T) {
	var enc encodeScratch
	var dec decodeScratch
	var payload []byte
	var dst []measure.Record
	for seed := int64(0); seed < 8; seed++ {
		for _, n := range []int{1, 2, 7, 100, 1000} {
			recs := codecRecords(seed*1000+int64(n), n, 16)
			payload = appendChunkV3(payload[:0], recs, &enc)
			var err error
			dst, err = decodeChunkV3(payload, dst, &dec)
			if err != nil {
				t.Fatalf("seed=%d n=%d: decode: %v", seed, n, err)
			}
			if len(dst) != len(recs) {
				t.Fatalf("seed=%d n=%d: %d records, want %d", seed, n, len(dst), len(recs))
			}
			for i := range recs {
				if dst[i] != recs[i] {
					t.Fatalf("seed=%d n=%d: record %d differs:\n got %+v\nwant %+v", seed, n, i, dst[i], recs[i])
				}
			}
		}
	}

	// Extreme values: every integer column at its min/max, zero and max
	// durations, max redirects. ClientIdx/SiteIdx stay in [0, MaxInt32]
	// — they are array indexes, and the decoder rejects negatives.
	extreme := []measure.Record{{
		ClientIdx: 0, SiteIdx: 0, At: simnet.Time(1<<63 - 1),
		DNSTime: 1<<63 - 1, Conns: -1 << 15, StatusCode: 1<<15 - 1,
		Bytes: -1 << 31, Redirects: -128, Elapsed: 0,
		DataPkts: 1<<15 - 1, Retransmits: -1 << 15,
	}, {
		ClientIdx: 1<<31 - 1, SiteIdx: 1<<31 - 1, At: 0,
		Conns: 1<<15 - 1, StatusCode: -1 << 15, Bytes: 1<<31 - 1,
		Redirects: 127, DataPkts: -1 << 15, Retransmits: 1<<15 - 1,
	}}
	payload = appendChunkV3(payload[:0], extreme, &enc)
	got, err := decodeChunkV3(payload, dst, &dec)
	if err != nil {
		t.Fatalf("extreme: decode: %v", err)
	}
	for i := range extreme {
		if got[i] != extreme[i] {
			t.Fatalf("extreme record %d differs:\n got %+v\nwant %+v", i, got[i], extreme[i])
		}
	}
}

// TestChunkDecodeRejectsNegativeIndexes: ClientIdx and SiteIdx index
// arrays downstream (client grids, per-site tallies), and the writer
// never stores negative values — so a payload carrying one is corrupt
// and must be rejected at decode, not passed on to panic an analysis
// pass. The encoder will happily fold negatives into zigzag deltas,
// which is exactly how a crafted file would smuggle them in.
func TestChunkDecodeRejectsNegativeIndexes(t *testing.T) {
	var enc encodeScratch
	var dec decodeScratch
	for _, tc := range []struct {
		name string
		rec  measure.Record
	}{
		{"negative ClientIdx", measure.Record{ClientIdx: -1}},
		{"negative SiteIdx", measure.Record{SiteIdx: -5}},
	} {
		payload := appendChunkV3(nil, []measure.Record{tc.rec}, &enc)
		if _, err := decodeChunkV3(payload, nil, &dec); err == nil {
			t.Errorf("%s decoded without error", tc.name)
		}
	}
}

// TestChunkDecodeTruncation: every strict prefix of a valid payload
// must be rejected — there is no prefix of a chunk that parses as a
// smaller valid chunk.
func TestChunkDecodeTruncation(t *testing.T) {
	recs := codecRecords(3, 50, 8)
	var enc encodeScratch
	payload := appendChunkV3(nil, recs, &enc)
	var dec decodeScratch
	var dst []measure.Record
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeChunkV3(payload[:cut], dst, &dec); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(payload))
		}
	}
	// And appending trailing garbage must be rejected too.
	if _, err := decodeChunkV3(append(bytes.Clone(payload), 0x00), dst, &dec); err == nil {
		t.Fatal("payload with trailing byte decoded without error")
	}
}

// TestIndexChunkMismatch: a chunk that inflates fine but disagrees with
// its index entry (record count, raw payload length, or a client range
// narrower than its records) must be rejected — the index is part of
// the integrity surface. An index entry whose client range is inverted
// or leaves the roster must already fail Open: ranged reads would
// silently skip its records.
func TestIndexChunkMismatch(t *testing.T) {
	recs := codecRecords(11, 200, 8)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, measure.DatasetMeta{Clients: 8, Websites: 40}, Options{ChunkRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	sink := w.NewSink()
	for i := range recs {
		sink.Append(&recs[i])
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	scan := func(tamper func(*reader)) error {
		src, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		tamper(src.(*reader))
		return AllRecords(src, func(*measure.Record) error { return nil })
	}

	if err := scan(func(*reader) {}); err != nil {
		t.Fatalf("pristine scan: %v", err)
	}
	if err := scan(func(d *reader) { d.chunks[0].Count++ }); err == nil {
		t.Error("record-count mismatch read without error")
	}
	if err := scan(func(d *reader) { d.chunks[0].Raw-- }); err == nil {
		t.Error("raw-length-too-short mismatch read without error")
	}
	if err := scan(func(d *reader) { d.chunks[0].Raw++ }); err == nil {
		t.Error("raw-length-too-long mismatch read without error")
	}
	if err := scan(func(d *reader) { d.chunks[0].Hi-- }); err == nil {
		t.Error("lowered client-range Hi read without error")
	}
	if err := scan(func(d *reader) { d.chunks[1].Lo++ }); err == nil {
		t.Error("raised client-range Lo read without error")
	}

	for name, tamper := range map[string]func(*index){
		"negative Lo":    func(x *index) { x.Chunks[0].Lo = -1 },
		"Lo above Hi":    func(x *index) { x.Chunks[1].Lo = x.Chunks[1].Hi + 1 },
		"Hi past roster": func(x *index) { x.Chunks[2].Hi = int32(x.Meta.Clients) },
		"roster shrunk":  func(x *index) { x.Meta.Clients = int(x.Chunks[len(x.Chunks)-1].Hi) },
		// A raw length no deflate stream of the chunk's length can
		// inflate to would size the read buffer from a corrupt entry.
		"raw past deflate's ratio": func(x *index) { x.Chunks[0].Raw = x.Chunks[0].Length*maxDeflateRatio + 1 },
	} {
		data := rewriteIndex(t, buf.Bytes(), tamper)
		if _, err := Open(bytes.NewReader(data), int64(len(data))); err == nil {
			t.Errorf("%s: Open accepted the index", name)
		}
	}
}

// rewriteIndex returns a copy of a dataset file whose index went
// through tamper, with the footer fixed up to match.
func rewriteIndex(t *testing.T, data []byte, tamper func(*index)) []byte {
	t.Helper()
	idxOff := int(binary.BigEndian.Uint64(data[len(data)-footerLen:]))
	var idx index
	if err := gob.NewDecoder(bytes.NewReader(data[idxOff : len(data)-footerLen])).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	tamper(&idx)
	var ibuf bytes.Buffer
	if err := gob.NewEncoder(&ibuf).Encode(idx); err != nil {
		t.Fatal(err)
	}
	footer := make([]byte, footerLen)
	binary.BigEndian.PutUint64(footer[0:8], uint64(idxOff))
	binary.BigEndian.PutUint64(footer[8:16], uint64(ibuf.Len()))
	copy(footer[16:], footerMagicV3)
	out := append(bytes.Clone(data[:idxOff]), ibuf.Bytes()...)
	return append(out, footer...)
}

// TestEncodeDecodeZeroAllocs locks the codec's steady-state allocation
// behavior: with warm scratch, encoding and decoding a chunk performs
// zero heap allocations — the property that keeps record I/O off the
// allocator at simulator rates.
func TestEncodeDecodeZeroAllocs(t *testing.T) {
	recs := codecRecords(7, 2048, 16)
	var enc encodeScratch
	var dec decodeScratch
	var payload []byte
	var dst []measure.Record

	// Warm the scratch (map, dict, column, payload, record buffers).
	payload = appendChunkV3(payload[:0], recs, &enc)
	var err error
	if dst, err = decodeChunkV3(payload, dst, &dec); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(20, func() {
		payload = appendChunkV3(payload[:0], recs, &enc)
	}); n != 0 {
		t.Errorf("encode allocates %.1f times per chunk, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if dst, err = decodeChunkV3(payload, dst, &dec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decode allocates %.1f times per chunk, want 0", n)
	}
}

// FuzzChunkDecode throws arbitrary bytes at the columnar decoder: it
// must never panic, and any payload it accepts must re-encode and
// re-decode to the same records (the codec is canonical on its image).
func FuzzChunkDecode(f *testing.F) {
	var enc encodeScratch
	for _, n := range []int{1, 3, 64, 500} {
		f.Add(appendChunkV3(nil, codecRecords(int64(n), n, 8), &enc))
	}
	valid := appendChunkV3(nil, codecRecords(9, 40, 8), &enc)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	f.Add([]byte{})
	f.Add([]byte{chunkFormatV3, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var dec decodeScratch
		recs, err := decodeChunkV3(payload, nil, &dec)
		if err != nil {
			return
		}
		var enc encodeScratch
		re := appendChunkV3(nil, recs, &enc)
		again, err := decodeChunkV3(re, nil, &decodeScratch{})
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-decode: %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("re-decode record %d differs:\n got %+v\nwant %+v", i, again[i], recs[i])
			}
		}
	})
}
