package dataset_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"webfail/internal/dataset"
	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// -update regenerates testdata/v3small.bin (the checked-in
// compatibility fixture) from the deterministic generator below.
var update = flag.Bool("update", false, "rewrite the v3 compatibility fixture")

// randRecords builds n records over the given client count with every
// field exercised, in canonical order (client-major, stable within a
// client). The generator is deterministic for a given seed: the
// compatibility fixture and the property tests both build on it.
func randRecords(seed int64, n, clients int) []measure.Record {
	rng := rand.New(rand.NewSource(seed))
	cats := []workload.Category{workload.PL, workload.BB, workload.DU, workload.CN}
	stages := []httpsim.Stage{httpsim.StageNone, httpsim.StageDNS, httpsim.StageTCP, httpsim.StageHTTP}
	recs := make([]measure.Record, n)
	for i := range recs {
		r := &recs[i]
		r.ClientIdx = int32(rng.Intn(clients))
		r.SiteIdx = int32(rng.Intn(40))
		r.At = simnet.Time(rng.Int63n(int64(1000 * time.Hour)))
		r.Category = cats[rng.Intn(len(cats))]
		r.Proxied = rng.Intn(4) == 0
		r.DNS = measure.DNSOutcome(rng.Intn(5))
		r.DNSTime = time.Duration(rng.Int63n(int64(5 * time.Second)))
		r.Stage = stages[rng.Intn(len(stages))]
		r.FailKind = httpsim.ConnFailKind(rng.Intn(4))
		r.Conns = int16(rng.Intn(6))
		r.StatusCode = int16(200 + rng.Intn(300))
		r.Bytes = rng.Int31n(1 << 20)
		r.Redirects = int8(rng.Intn(3))
		if rng.Intn(2) == 0 {
			r.ReplicaIP = netip.AddrFrom4([4]byte{byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(250))})
		}
		r.Elapsed = time.Duration(rng.Int63n(int64(time.Minute)))
		r.DataPkts = int16(rng.Intn(200))
		r.Retransmits = int16(rng.Intn(20))
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].ClientIdx < recs[j].ClientIdx })
	return recs
}

func collect(t *testing.T, src dataset.RecordSource, lo, hi int) []measure.Record {
	t.Helper()
	var got []measure.Record
	if err := src.Records(lo, hi, func(r *measure.Record) error {
		got = append(got, *r)
		return nil
	}); err != nil {
		t.Fatalf("Records(%d, %d): %v", lo, hi, err)
	}
	return got
}

func sameRecords(t *testing.T, got, want []measure.Record, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// save writes recs through one sink and returns the dataset's bytes.
func save(t *testing.T, meta measure.DatasetMeta, recs []measure.Record, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := dataset.NewWriter(&buf, meta, dataset.Options{ChunkRecords: chunk})
	if err != nil {
		t.Fatal(err)
	}
	sink := w.NewSink()
	for i := range recs {
		if err := sink.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mixedIPRecords augments the deterministic generator with IPv6 and
// 4-in-6 replica addresses. Kept separate from randRecords so the
// checked-in fixture's bytes stay reproducible.
func mixedIPRecords(seed int64, n, clients int) []measure.Record {
	recs := randRecords(seed, n, clients)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range recs {
		switch rng.Intn(5) {
		case 0:
			var a [16]byte
			rng.Read(a[:])
			a[0] = 0x20 // global unicast, never the 4-in-6 prefix
			recs[i].ReplicaIP = netip.AddrFrom16(a)
		case 1:
			recs[i].ReplicaIP = netip.AddrFrom16(netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), 9}).As16())
		}
	}
	return recs
}

// TestDatasetV3RoundTrip is the save→load property: for random record
// sets and a sweep of chunk sizes (forcing 1..n chunks, partial last
// chunks, and the empty dataset), the reader reproduces the written
// records exactly, in canonical order, with the meta intact.
func TestDatasetV3RoundTrip(t *testing.T) {
	meta := measure.DatasetMeta{Seed: 7, StartUnix: 100, EndUnix: 200, Clients: 16, Websites: 40, Transactions: 5000, Failures: 321}
	for _, n := range []int{0, 1, 5, 257, 1000} {
		for _, chunk := range []int{1, 3, 7, 64, 0} {
			label := fmt.Sprintf("n=%d chunk=%d", n, chunk)
			recs := mixedIPRecords(int64(n)*31+int64(chunk), n, 16)
			var buf bytes.Buffer
			w, err := dataset.NewWriter(&buf, meta, dataset.Options{ChunkRecords: chunk})
			if err != nil {
				t.Fatal(err)
			}
			sink := w.NewSink()
			for i := range recs {
				if err := sink.Append(&recs[i]); err != nil {
					t.Fatalf("%s: Append: %v", label, err)
				}
			}
			if err := sink.Close(); err != nil {
				t.Fatalf("%s: sink close: %v", label, err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("%s: writer close: %v", label, err)
			}
			src, err := dataset.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatalf("%s: Open: %v", label, err)
			}
			if !reflect.DeepEqual(src.Meta(), meta) {
				t.Fatalf("%s: meta = %+v, want %+v", label, src.Meta(), meta)
			}
			if src.Stored() != int64(n) {
				t.Fatalf("%s: stored = %d, want %d", label, src.Stored(), n)
			}
			sameRecords(t, collect(t, src, 0, 1<<30), recs, label)

			// Range reads return exactly the clients in range.
			for _, rg := range [][2]int{{0, 4}, {4, 11}, {11, 16}, {3, 3}, {30, 40}} {
				var want []measure.Record
				for _, r := range recs {
					if int(r.ClientIdx) >= rg[0] && int(r.ClientIdx) < rg[1] {
						want = append(want, r)
					}
				}
				sameRecords(t, collect(t, src, rg[0], rg[1]), want, fmt.Sprintf("%s range %v", label, rg))
			}
		}
	}
}

// TestDatasetV3ParallelStreams writes through concurrent per-shard
// sinks — the RunParallel topology — and checks the stored canonical
// order equals the serial (single-stream) order, and that concurrent
// range reads see consistent data. The concurrent sinks each encode
// and compress their own chunks and append them under the writer's
// mutex at once. A single stream's file must also be byte-for-byte
// repeatable at any GOMAXPROCS: its sink appends every chunk as it
// seals it, so no scheduling can reorder them.
func TestDatasetV3ParallelStreams(t *testing.T) {
	const clients = 20
	recs := mixedIPRecords(99, 700, clients)
	meta := measure.DatasetMeta{Seed: 1, Clients: clients, Websites: 40}

	write := func(streams int, chunk int) []byte {
		var buf bytes.Buffer
		w, err := dataset.NewWriter(&buf, meta, dataset.Options{ChunkRecords: chunk})
		if err != nil {
			t.Fatal(err)
		}
		sinks := make([]*dataset.Sink, streams)
		for i := range sinks {
			sinks[i] = w.NewSink()
		}
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			lo, hi := measure.ShardRange(clients, streams, s)
			wg.Add(1)
			go func(s, lo, hi int) {
				defer wg.Done()
				for i := range recs {
					if ci := int(recs[i].ClientIdx); ci >= lo && ci < hi {
						if err := sinks[s].Append(&recs[i]); err != nil {
							t.Errorf("stream %d: %v", s, err)
							return
						}
					}
				}
			}(s, lo, hi)
		}
		wg.Wait()
		for _, s := range sinks {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, streams := range []int{1, 3, 7} {
		data := write(streams, 16)
		src, err := dataset.Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("streams=%d: Open: %v", streams, err)
		}
		sameRecords(t, collect(t, src, 0, clients), recs, fmt.Sprintf("streams=%d", streams))

		// Concurrent shard reads (the ConsumeParallelOpts access pattern).
		var wg sync.WaitGroup
		parts := make([][]measure.Record, 4)
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				lo, hi := measure.ShardRange(clients, 4, s)
				src.Records(lo, hi, func(r *measure.Record) error {
					parts[s] = append(parts[s], *r)
					return nil
				})
			}(s)
		}
		wg.Wait()
		var joined []measure.Record
		for _, p := range parts {
			joined = append(joined, p...)
		}
		sameRecords(t, joined, recs, fmt.Sprintf("streams=%d concurrent shards", streams))
	}

	first := write(1, 16)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		again := write(1, 16)
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(again, first) {
			t.Errorf("GOMAXPROCS=%d: single-stream save is not byte-identical to the first", procs)
		}
	}
}

// TestSinkFlushAfterWriterClose: sealing a chunk after the writer
// closed is contract misuse, but it must surface as the documented
// error — never as a chunk appended behind the written index.
func TestSinkFlushAfterWriterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := dataset.NewWriter(&buf, measure.DatasetMeta{Clients: 4, Websites: 40}, dataset.Options{ChunkRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	sink := w.NewSink()
	r := measure.Record{ClientIdx: 1}
	if err := sink.Append(&r); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing the sink flushes its partial chunk into the closed writer.
	if err := sink.Close(); err == nil {
		t.Error("sink close after writer close succeeded")
	}
}

// failAfterWriter accepts its first writes (the magic string), then
// fails every later one, like a disk that fills up mid-save.
type failAfterWriter struct{ ok int }

var errDiskFull = errors.New("disk full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		return 0, errDiskFull
	}
	w.ok--
	return len(p), nil
}

// TestSinkCloseReportsAppendError: once a chunk write fails, the first
// Sink.Close must return the error an earlier Append already returned —
// a caller that checks only Close must not see a clean save.
func TestSinkCloseReportsAppendError(t *testing.T) {
	w, err := dataset.NewWriter(&failAfterWriter{ok: 1}, measure.DatasetMeta{Clients: 4, Websites: 40},
		dataset.Options{ChunkRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	sink := w.NewSink()
	recs := randRecords(3, 10000, 4)
	failed := false
	for i := range recs {
		if err := sink.Append(&recs[i]); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("no Append failed on a destination that rejects every chunk")
	}
	if err := sink.Close(); !errors.Is(err, errDiskFull) {
		t.Errorf("first Sink.Close = %v, want the write error", err)
	}
	if err := w.Close(); !errors.Is(err, errDiskFull) {
		t.Errorf("Writer.Close = %v, want the write error", err)
	}
}

// TestDatasetV3Corruption exercises the failure paths at the file
// level: truncation at every layer, non-dataset input, an earlier
// format generation's magic, a flipped bit anywhere in a chunk body
// (the gzip CRC or the column validation must catch it), a corrupt
// index body, a corrupt footer, a wrong-generation footer magic, and a
// record outside the header's roster. Every case must error cleanly,
// never panic, at Open or at Records.
func TestDatasetV3Corruption(t *testing.T) {
	recs := mixedIPRecords(5, 300, 8)
	roster := measure.DatasetMeta{Clients: 8, Websites: 40}
	data := save(t, roster, recs, 32)

	open := func(b []byte) (dataset.RecordSource, error) {
		return dataset.Open(bytes.NewReader(b), int64(len(b)))
	}
	scan := func(src dataset.RecordSource) error {
		return dataset.AllRecords(src, func(*measure.Record) error { return nil })
	}

	// Sanity: the pristine file opens and scans.
	src, err := open(data)
	if err != nil {
		t.Fatalf("pristine Open: %v", err)
	}
	if err := scan(src); err != nil {
		t.Fatalf("pristine scan: %v", err)
	}

	// Truncations: mid-magic, mid-chunk (footer gone), mid-footer.
	for _, size := range []int{0, 5, 11, 40, len(data) / 2, len(data) - 1} {
		if size >= len(data) {
			continue
		}
		if _, err := open(data[:size]); err == nil {
			t.Errorf("truncated to %d bytes: accepted", size)
		}
	}

	// Non-dataset input.
	if _, err := open([]byte("definitely not a dataset, but long enough to sniff")); err == nil {
		t.Error("garbage accepted")
	}

	// An earlier generation's magic on an otherwise intact file: those
	// formats are no longer readable.
	for _, magic := range []string{"WEBFAILDS1\n", "WEBFAILDS2\n"} {
		bad := bytes.Clone(data)
		copy(bad, magic)
		if _, err := open(bad); err == nil {
			t.Errorf("file starting with %q accepted", magic)
		}
	}

	// A v2 footer magic on a v3 file must be rejected: the footer
	// generation is part of the format contract.
	bad := bytes.Clone(data)
	copy(bad[len(bad)-8:], "WFDS2IDX")
	if _, err := open(bad); err == nil {
		t.Error("v2 footer magic on v3 file accepted")
	}

	// Index offset pointing past the file.
	bad = bytes.Clone(data)
	for i := len(bad) - 24; i < len(bad)-16; i++ {
		bad[i] = 0xff
	}
	if _, err := open(bad); err == nil {
		t.Error("corrupt index offset accepted")
	}

	// Corrupt index body: zero the gob stream's leading length byte.
	idxOff := int(binary.BigEndian.Uint64(data[len(data)-24 : len(data)-16]))
	bad = bytes.Clone(data)
	bad[idxOff] = 0x00
	if _, err := open(bad); err == nil {
		t.Error("corrupt index body accepted")
	}

	// Bit flips across the chunk region: every one must either surface
	// as an error from Open or Records, or leave the decoded records
	// byte-identical (flips in non-semantic gzip header bytes — MTIME,
	// XFL, OS — are outside the CRC and genuinely harmless). Silently
	// different data is the only unacceptable outcome; panics never.
	for pos := 11; pos < idxOff; pos += 7 {
		bad := bytes.Clone(data)
		bad[pos] ^= 0x10
		src, err := open(bad)
		if err != nil {
			continue
		}
		var got []measure.Record
		if err := dataset.AllRecords(src, func(r *measure.Record) error {
			got = append(got, *r)
			return nil
		}); err != nil {
			continue
		}
		sameRecords(t, got, recs, fmt.Sprintf("bit flip at %d decoded without error yet", pos))
	}

	// Visit error aborts and propagates.
	src, err = open(data)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("stop")
	if err := dataset.AllRecords(src, func(*measure.Record) error { return wantErr }); err != wantErr {
		t.Errorf("visit error = %v, want %v", err, wantErr)
	}

	// A record outside the header's roster would index past an analysis
	// pass's arrays. The writer stores it as given; the reader must
	// refuse it — a site past Websites when its chunk is read, a client
	// past Clients already at Open (the index's client range holds it).
	for _, tc := range []struct {
		name string
		edit func(r *measure.Record)
	}{
		{"site past roster", func(r *measure.Record) { r.SiteIdx = 580 }},
		{"client past roster", func(r *measure.Record) { r.ClientIdx = 8 }},
	} {
		bad := slices.Clone(recs)
		tc.edit(&bad[len(bad)-1])
		src, err := open(save(t, roster, bad, 32))
		if err == nil {
			err = scan(src)
		}
		if err == nil {
			t.Errorf("%s: read without error", tc.name)
		}
	}
}

// v3 fixture: a deterministic record set saved through one sink, so
// -update writes the same bytes every time.
const (
	v3FixturePath    = "testdata/v3small.bin"
	v3FixtureSeed    = 42
	v3FixtureRecords = 200
	v3FixtureClients = 10
)

func v3FixtureMeta() measure.DatasetMeta {
	return measure.DatasetMeta{
		Seed: v3FixtureSeed, StartUnix: 1104555600, EndUnix: 1104555600 + 3600*1000,
		Clients: v3FixtureClients, Websites: 40, Transactions: 12345, Failures: v3FixtureRecords,
	}
}

func v3FixtureBytes(t *testing.T) []byte {
	t.Helper()
	return save(t, v3FixtureMeta(), randRecords(v3FixtureSeed, v3FixtureRecords, v3FixtureClients), 32)
}

// TestDatasetV3Compat proves backward compatibility against a
// checked-in fixture: a file written by an earlier writer must keep
// loading through dataset.Open, expose the same meta and records, and
// serve the ranged reads the sharded ingest relies on.
func TestDatasetV3Compat(t *testing.T) {
	if *update {
		if err := os.MkdirAll(filepath.Dir(v3FixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(v3FixturePath, v3FixtureBytes(t), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", v3FixturePath)
	}
	data, err := os.ReadFile(v3FixturePath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to regenerate): %v", err)
	}
	src, err := dataset.Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got, want := src.Meta(), v3FixtureMeta(); !reflect.DeepEqual(got, want) {
		t.Errorf("meta = %+v, want %+v", got, want)
	}
	want := randRecords(v3FixtureSeed, v3FixtureRecords, v3FixtureClients)
	if src.Stored() != int64(len(want)) {
		t.Errorf("stored = %d, want %d", src.Stored(), len(want))
	}
	sameRecords(t, collect(t, src, 0, 1<<30), want, "full scan")
	for _, rg := range [][2]int{{0, 3}, {3, 7}, {7, 10}, {5, 5}} {
		var sub []measure.Record
		for _, r := range want {
			if int(r.ClientIdx) >= rg[0] && int(r.ClientIdx) < rg[1] {
				sub = append(sub, r)
			}
		}
		sameRecords(t, collect(t, src, rg[0], rg[1]), sub, fmt.Sprintf("range %v", rg))
	}
}

// FuzzDatasetOpen hands whole files to Open and AllRecords: arbitrary
// bytes must give an error or a source whose full scan visits exactly
// its Stored() records, never a panic. The seeds are the checked-in
// fixture, truncations of it (mid-magic, mid-chunk, at the index, inside
// the footer) and the fixture with a flipped footer: its magic, its
// index offset and its index length.
func FuzzDatasetOpen(f *testing.F) {
	data, err := os.ReadFile(v3FixturePath)
	if err != nil {
		f.Fatalf("missing fixture: %v", err)
	}
	f.Add(data)
	idxOff := int(binary.BigEndian.Uint64(data[len(data)-24 : len(data)-16]))
	for _, n := range []int{0, 5, 11, len(data) / 2, idxOff, len(data) - 24, len(data) - 1} {
		f.Add(data[:n])
	}
	for _, pos := range []int{len(data) - 1, len(data) - 17, len(data) - 9} {
		bad := bytes.Clone(data)
		bad[pos] ^= 0xff
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		src, err := dataset.Open(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			return
		}
		var n int64
		if err := dataset.AllRecords(src, func(*measure.Record) error {
			n++
			return nil
		}); err != nil {
			return
		}
		if n != src.Stored() {
			t.Fatalf("full scan visited %d records, Stored() = %d", n, src.Stored())
		}
	})
}
