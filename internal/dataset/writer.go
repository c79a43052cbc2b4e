package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sync"
	"time"

	"webfail/internal/measure"
	"webfail/internal/obs"
)

// Options configure a Writer.
type Options struct {
	// ChunkRecords caps the records buffered per chunk; a Sink flushes
	// a chunk once it is full, which bounds both writer memory and the
	// reader's per-chunk working set. <= 0 selects DefaultChunkRecords.
	// Chunk boundaries are a pure function of the record stream (every
	// ChunkRecords records seals a chunk), so the stored chunk topology
	// is deterministic for a given stream.
	ChunkRecords int
	// Metrics, when non-nil, receives write-side counters (chunks,
	// records, raw and compressed bytes written; per-chunk record-count
	// distribution) and the wall-clock encode/gzip time. Counts are
	// deterministic for a fixed flag set; chunk topology depends on the
	// number of writing streams.
	Metrics *obs.Registry
}

// chunkLevel is the gzip level chunks are framed with: stored deflate
// blocks — still CRC-verified gzip streams, but written and inflated at
// memcpy speed, which is what lets record I/O keep pace with the
// simulator (the columnar encoding already strips most of the
// redundancy gzip would find).
const chunkLevel = gzip.NoCompression

// Writer writes a dataset to an io.Writer. Chunks are produced
// by Sinks (one per writing stream — e.g. one per measure.RunParallel
// shard): each sink encodes and compresses its own sealed chunks and
// appends them to the underlying writer under a mutex, so sinks may
// flush concurrently. Only the byte order of chunks from different
// sinks depends on their timing; the index written at Close is sorted
// into canonical client-major order, which makes that order irrelevant
// to readers. A single sink's file is byte-for-byte repeatable.
//
// Usage: NewWriter, NewSink per stream, feed records, Close every sink,
// then Close the writer (which writes the index and footer). A write
// error surfaces on the failing sink's Append and, definitively, at
// every later Close.
type Writer struct {
	mu       sync.Mutex
	w        io.Writer
	off      int64
	meta     measure.DatasetMeta
	chunks   []chunkInfo
	nstreams int32
	chunkCap int
	stored   int64
	err      error
	closed   bool // Close called; appendChunk refused
	m        writerMetrics
}

// writerMetrics holds the Writer's resolved metric handles. All fields
// are nil (and every update a no-op) when Options.Metrics was nil.
type writerMetrics struct {
	chunks        *obs.Counter
	records       *obs.Counter
	bytes         *obs.Counter
	rawBytes      *obs.Counter
	chunkRecords  *obs.Histogram
	gzipSeconds   *obs.Histogram
	encodeSeconds *obs.Histogram
}

func newWriterMetrics(reg *obs.Registry) writerMetrics {
	return writerMetrics{
		chunks:        reg.Counter("dataset_chunks_written_total"),
		records:       reg.Counter("dataset_records_written_total"),
		bytes:         reg.Counter("dataset_bytes_written_total"),
		rawBytes:      reg.Counter("dataset_raw_bytes_total"),
		chunkRecords:  reg.Histogram("dataset_chunk_records", []float64{64, 512, 2048, 8192, 32768}),
		gzipSeconds:   reg.WallHistogram("dataset_gzip_seconds", []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5}),
		encodeSeconds: reg.WallHistogram("dataset_encode_seconds", []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5}),
	}
}

// NewWriter starts a dataset on w with the given run description.
// meta's Transactions and Failures fields may be zero: each Sink that
// counted traffic via Observe folds its counts in when closed.
func NewWriter(w io.Writer, meta measure.DatasetMeta, opts Options) (*Writer, error) {
	chunkCap := opts.ChunkRecords
	if chunkCap <= 0 {
		chunkCap = DefaultChunkRecords
	}
	n, err := io.WriteString(w, magicV3)
	if err != nil {
		return nil, fmt.Errorf("dataset: write magic: %w", err)
	}
	return &Writer{w: w, off: int64(n), meta: meta, chunkCap: chunkCap, m: newWriterMetrics(opts.Metrics)}, nil
}

// NewSink returns a sink for one writing stream. Streams must cover
// disjoint client sets (as measure.RunParallel shards do) for the
// stored canonical order to be well defined; a single stream may carry
// any client-major record sequence.
func (w *Writer) NewSink() *Sink {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := &Sink{w: w, stream: w.nstreams}
	w.nstreams++
	return s
}

// Stored returns the number of records flushed into chunks so far.
func (w *Writer) Stored() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stored
}

// Chunks returns the number of chunks written so far.
func (w *Writer) Chunks() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.chunks)
}

// appendChunk writes one compressed chunk and records its index entry.
// It reports any error the writer has already hit, so sinks stop early.
func (w *Writer) appendChunk(data []byte, info chunkInfo) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = fmt.Errorf("dataset: chunk appended after writer close")
		return w.err
	}
	if _, err := w.w.Write(data); err != nil {
		w.err = fmt.Errorf("dataset: write chunk: %w", err)
		return w.err
	}
	info.Offset = w.off
	info.Length = int64(len(data))
	w.off += int64(len(data))
	w.chunks = append(w.chunks, info)
	w.stored += int64(info.Count)
	w.m.chunks.Inc()
	w.m.records.Add(int64(info.Count))
	w.m.bytes.Add(int64(len(data)))
	w.m.rawBytes.Add(info.Raw)
	w.m.chunkRecords.Observe(float64(info.Count))
	return nil
}

// Close writes the index and footer. Every Sink must have been closed
// first. Close reports any error a sink flush hit earlier, so a caller
// that checks only Close still sees write failures.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	sortCanonical(w.chunks)
	var ibuf bytes.Buffer
	if err := gob.NewEncoder(&ibuf).Encode(index{Meta: w.meta, Chunks: w.chunks}); err != nil {
		w.err = fmt.Errorf("dataset: encode index: %w", err)
		return w.err
	}
	footer := make([]byte, footerLen)
	binary.BigEndian.PutUint64(footer[0:8], uint64(w.off))
	binary.BigEndian.PutUint64(footer[8:16], uint64(ibuf.Len()))
	copy(footer[16:], footerMagicV3)
	if _, err := w.w.Write(ibuf.Bytes()); err != nil {
		w.err = fmt.Errorf("dataset: write index: %w", err)
		return w.err
	}
	if _, err := w.w.Write(footer); err != nil {
		w.err = fmt.Errorf("dataset: write footer: %w", err)
		return w.err
	}
	return nil
}

// Sink is one writing stream of a Writer: it buffers up to the writer's
// chunk capacity of records and seals each full chunk as one
// independently compressed unit, which it encodes, compresses and
// appends itself. A Sink is not safe for concurrent use; use one Sink
// per goroutine (the Writer serializes the appends).
//
// Sink is designed as the visit target of measure.RunParallel: shard s
// feeds sinks[s], so each worker writes its own chunks and peak memory
// stays bounded by chunk size × shards instead of the whole record set.
type Sink struct {
	w           *Writer
	stream      int32
	seq         int32
	buf         []measure.Record
	txns, fails int64
	err         error
	closed      bool

	// Encode scratch, reused for every chunk the sink seals, so the
	// steady-state write path allocates nothing per chunk.
	enc     encodeScratch
	payload []byte
	zbuf    bytes.Buffer
	zw      *gzip.Writer
}

// Append stores one record. The record is copied before Append
// returns, so callers may reuse it (measure.RunParallel's visit
// contract).
func (s *Sink) Append(r *measure.Record) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		s.err = fmt.Errorf("dataset: append to closed sink")
		return s.err
	}
	if s.buf == nil {
		s.buf = make([]measure.Record, 0, s.w.chunkCap)
	}
	s.buf = append(s.buf, *r)
	if len(s.buf) >= s.w.chunkCap {
		s.flush()
	}
	return s.err
}

// Observe applies the standard storage policy for a live run: every
// record counts toward the dataset's Transactions/Failures meta, and
// failed records are stored. The counts fold into the writer's meta
// when the sink is closed.
func (s *Sink) Observe(r *measure.Record) error {
	s.txns++
	if r.Failed() {
		s.fails++
		return s.Append(r)
	}
	return s.err
}

// flush seals the buffered chunk: columnar-encode, compress, append.
// A failure is kept in s.err, which Append and Close return.
func (s *Sink) flush() {
	if len(s.buf) == 0 {
		return
	}
	lo, hi := s.buf[0].ClientIdx, s.buf[0].ClientIdx
	for i := range s.buf {
		if c := s.buf[i].ClientIdx; c < lo {
			lo = c
		} else if c > hi {
			hi = c
		}
	}
	info := chunkInfo{Count: int32(len(s.buf)), Lo: lo, Hi: hi, Stream: s.stream, Seq: s.seq}
	s.seq++

	m := &s.w.m
	var start time.Time
	if m.encodeSeconds != nil {
		start = time.Now()
	}
	s.payload = appendChunkV3(s.payload[:0], s.buf, &s.enc)
	s.buf = s.buf[:0]
	info.Raw = int64(len(s.payload))
	if m.encodeSeconds != nil {
		m.encodeSeconds.Observe(time.Since(start).Seconds())
		start = time.Now()
	}

	s.zbuf.Reset()
	if s.zw == nil {
		s.zw = chunkWriterPool.Get().(*gzip.Writer)
	}
	s.zw.Reset(&s.zbuf)
	if _, err := s.zw.Write(s.payload); err != nil {
		s.err = fmt.Errorf("dataset: compress chunk: %w", err)
		return
	}
	if err := s.zw.Close(); err != nil {
		s.err = fmt.Errorf("dataset: compress chunk: %w", err)
		return
	}
	if m.gzipSeconds != nil {
		m.gzipSeconds.Observe(time.Since(start).Seconds())
	}
	if err := s.w.appendChunk(s.zbuf.Bytes(), info); err != nil {
		s.err = err
	}
}

// Close flushes the partial last chunk and folds the sink's Observe
// counts into the writer's meta. It returns the first error the sink
// hit, including one an earlier Append already returned.
func (s *Sink) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	s.flush()
	if s.zw != nil {
		chunkWriterPool.Put(s.zw)
		s.zw = nil
	}
	s.w.mu.Lock()
	s.w.meta.Transactions += s.txns
	s.w.meta.Failures += s.fails
	s.w.mu.Unlock()
	return s.err
}
