package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"runtime"
	"sort"
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
	// ChunkRecords records seals a chunk), never of compression timing,
	// so the stored chunk topology is deterministic for a given stream.
	ChunkRecords int
	// CompressWorkers bounds the compression pipeline: sealed chunks
	// are encoded and compressed by this many workers off the sinks'
	// hot path. <= 0 selects GOMAXPROCS (capped at 8).
	CompressWorkers int
	// Metrics, when non-nil, receives write-side counters (chunks,
	// records, raw and compressed bytes written; per-chunk record-count
	// distribution; chunk-buffer pool reuse) and the wall-clock
	// encode/gzip time. Counts are deterministic for a fixed flag set;
	// chunk topology depends on the number of writing streams.
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
// shard) and appended to the underlying writer under a mutex, so sinks
// may flush concurrently; the index written at Close is sorted into
// canonical client-major order regardless of the interleaving.
//
// Sealed chunks are handed to a bounded worker pool that
// columnar-encodes and compresses them off the sink's hot path: a
// sink's Append never blocks on gzip unless every worker is busy and
// the job queue is full. Chunk contents and boundaries stay a pure
// function of each stream's record sequence — only the byte order of
// chunks within the file depends on worker timing, and the sorted
// index makes that order irrelevant to readers.
//
// Usage: NewWriter, NewSink per stream, feed records, Close every sink,
// then Close the writer (which drains the pipeline and writes the
// index and footer). Errors hit by pipeline workers surface on the
// next flush and, definitively, at Close.
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
	closed   bool // no new chunks may be submitted
	sealed   bool // index written; appendChunk refused
	m        writerMetrics

	// Compression pipeline.
	jobs     chan encodeJob
	workers  sync.WaitGroup
	inflight sync.WaitGroup // submits between their closed-check and channel send
	recPool  sync.Pool      // *[]measure.Record, capacity chunkCap
}

// encodeJob is one sealed chunk travelling from a sink to a pipeline
// worker: the records to encode (ownership transfers to the worker,
// which recycles the buffer) and the index entry to complete.
type encodeJob struct {
	recs []measure.Record
	info chunkInfo
}

// writerMetrics holds the Writer's resolved metric handles. All fields
// are nil (and every update a no-op) when Options.Metrics was nil.
type writerMetrics struct {
	chunks        *obs.Counter
	records       *obs.Counter
	bytes         *obs.Counter
	rawBytes      *obs.Counter
	bufReuse      *obs.Counter
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
		bufReuse:      reg.Counter("dataset_chunk_buffers_reused_total"),
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
	wr := &Writer{w: w, off: int64(n), meta: meta, chunkCap: chunkCap, m: newWriterMetrics(opts.Metrics)}
	workers := opts.CompressWorkers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 8)
	}
	wr.jobs = make(chan encodeJob, 2*workers)
	wr.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go wr.encodeWorker()
	}
	return wr, nil
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

// getRecBuf hands a sink an empty chunk record buffer, reusing one a
// pipeline worker recycled when possible.
func (w *Writer) getRecBuf() []measure.Record {
	if p, ok := w.recPool.Get().(*[]measure.Record); ok && p != nil {
		w.m.bufReuse.Inc()
		return (*p)[:0]
	}
	return make([]measure.Record, 0, w.chunkCap)
}

// submit hands a sealed chunk to the compression pipeline. It
// reports any error the writer has already hit, so sinks stop early.
func (w *Writer) submit(job encodeJob) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.err = fmt.Errorf("dataset: chunk sealed after writer close")
		w.mu.Unlock()
		return w.err
	}
	// Raised under the same lock that checked closed, so Close — which
	// sets closed under the lock and then waits on inflight — observes
	// every such submit before it closes the jobs channel. A sink racing
	// Close therefore gets the sealed-after-close error above, never a
	// send on a closed channel.
	w.inflight.Add(1)
	w.mu.Unlock()
	w.jobs <- job
	w.inflight.Done()
	return nil
}

// setErr records the first error the writer hits.
func (w *Writer) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// encodeWorker drains sealed chunks: columnar-encode, compress, append.
// Worker-local scratch (encode buffers, one gzip writer) is reused for
// the writer's whole life, so the steady-state pipeline allocates
// nothing per chunk beyond pool misses.
func (w *Writer) encodeWorker() {
	defer w.workers.Done()
	var (
		sc      encodeScratch
		payload []byte
		zbuf    bytes.Buffer
		zw      *gzip.Writer
	)
	for job := range w.jobs {
		var encStart time.Time
		if w.m.encodeSeconds != nil {
			encStart = time.Now()
		}
		payload = appendChunkV3(payload[:0], job.recs, &sc)
		if w.m.encodeSeconds != nil {
			w.m.encodeSeconds.Observe(time.Since(encStart).Seconds())
		}
		job.info.Raw = int64(len(payload))
		recs := job.recs
		w.recPool.Put(&recs)

		var gzStart time.Time
		if w.m.gzipSeconds != nil {
			gzStart = time.Now()
		}
		zbuf.Reset()
		if zw == nil {
			zw, _ = gzip.NewWriterLevel(&zbuf, chunkLevel) // a valid level: no error
		} else {
			zw.Reset(&zbuf)
		}
		if _, err := zw.Write(payload); err != nil {
			w.setErr(fmt.Errorf("dataset: compress chunk: %w", err))
			continue
		}
		if err := zw.Close(); err != nil {
			w.setErr(fmt.Errorf("dataset: compress chunk: %w", err))
			continue
		}
		if w.m.gzipSeconds != nil {
			w.m.gzipSeconds.Observe(time.Since(gzStart).Seconds())
		}
		if err := w.appendChunk(zbuf.Bytes(), job.info); err != nil {
			// appendChunk stored the error; later flushes and Close see it.
			continue
		}
	}
}

// appendChunk writes one compressed chunk and records its index entry.
func (w *Writer) appendChunk(data []byte, info chunkInfo) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.sealed {
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

// Close drains the compression pipeline, then writes the index and
// footer. Every Sink must have been closed first. Close reports any
// error a concurrent sink flush or pipeline worker hit earlier, so a
// caller that checks only Close still sees write failures.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()
	w.inflight.Wait()
	close(w.jobs)
	w.workers.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	w.sealed = true
	if w.err != nil {
		return w.err
	}
	// Canonical order: client-major. Streams own disjoint client
	// ranges, so Lo never ties across streams; within a stream, Seq is
	// the write order.
	sort.Slice(w.chunks, func(i, j int) bool {
		a, b := &w.chunks[i], &w.chunks[j]
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.Seq < b.Seq
	})
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
// independently compressed unit. A Sink is not safe for concurrent use;
// use one Sink per goroutine (the Writer serializes the appends).
//
// Sink implements RecordSink and is designed as the visit target of
// measure.RunParallel: shard s feeds sinks[s], so each worker writes
// its own chunks and peak memory stays bounded by chunk size × shards
// (plus the bounded compression pipeline) instead of the whole record
// set.
type Sink struct {
	w           *Writer
	stream      int32
	seq         int32
	buf         []measure.Record
	txns, fails int64
	err         error
	closed      bool
}

// Append stores one record (copied immediately).
func (s *Sink) Append(r *measure.Record) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		s.err = fmt.Errorf("dataset: append to closed sink")
		return s.err
	}
	if s.buf == nil {
		s.buf = s.w.getRecBuf()
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

// flush seals the buffered chunk and hands it to the compression
// pipeline. A failure is kept in s.err, which Append and Close return.
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
	job := encodeJob{recs: s.buf, info: chunkInfo{Count: int32(len(s.buf)), Lo: lo, Hi: hi, Stream: s.stream, Seq: s.seq}}
	s.seq++
	s.buf = s.w.getRecBuf()
	if err := s.w.submit(job); err != nil {
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
	s.w.mu.Lock()
	s.w.meta.Transactions += s.txns
	s.w.meta.Failures += s.fails
	s.w.mu.Unlock()
	return s.err
}
