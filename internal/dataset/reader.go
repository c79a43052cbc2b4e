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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webfail/internal/measure"
	"webfail/internal/obs"
)

// DefaultReadAhead is the number of chunks a Records call keeps in
// flight ahead of its consumer: decompression and columnar decoding
// run in background workers while the visitor chews on the previous
// chunk, bounding memory at readAhead chunks per call.
const DefaultReadAhead = 2

// OpenOption configures Open.
type OpenOption func(*openCfg)

type openCfg struct {
	metrics   *obs.Registry
	readAhead int
}

// WithMetrics instruments the returned RecordSource: chunks, records,
// and compressed bytes read are counted into reg, and gunzip+decode
// time accumulates as a wall-clock histogram. Record counts are
// deterministic; chunk and byte counts additionally depend on how many
// reading shards overlap each chunk.
func WithMetrics(reg *obs.Registry) OpenOption {
	return func(c *openCfg) { c.metrics = reg }
}

// WithReadAhead bounds the decode-ahead pipeline: each Records call
// decompresses up to n chunks ahead of its consumer. n <= 1 disables
// the pipeline (decode inline, still through reused buffers); 0 keeps
// DefaultReadAhead. Sharded ingest already runs one Records call per
// shard, so the default stays small.
func WithReadAhead(n int) OpenOption {
	return func(c *openCfg) { c.readAhead = n }
}

// Open returns a RecordSource over the dataset at r: a chunk-ranged
// streaming reader that holds only the index in memory. size is the
// total file size (e.g. from os.File.Stat). A file that is not a
// complete dataset in the current format — including one of an earlier
// format generation — is an error.
func Open(r io.ReaderAt, size int64, opts ...OpenOption) (RecordSource, error) {
	cfg := openCfg{readAhead: DefaultReadAhead}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.readAhead == 0 {
		cfg.readAhead = DefaultReadAhead
	}
	magic := make([]byte, len(magicV3))
	if size < int64(len(magic)) {
		return nil, fmt.Errorf("dataset: truncated file (%d bytes)", size)
	}
	if _, err := r.ReadAt(magic, 0); err != nil {
		return nil, fmt.Errorf("dataset: read magic: %w", err)
	}
	switch m := string(magic); {
	case m == magicV3:
	case strings.HasPrefix(m, "WEBFAILDS"):
		return nil, fmt.Errorf("dataset: unsupported format generation %q (only %q files are readable)",
			strings.TrimSpace(m), strings.TrimSpace(magicV3))
	default:
		return nil, fmt.Errorf("dataset: not a webfail dataset")
	}

	if size < int64(len(magicV3))+footerLen {
		return nil, fmt.Errorf("dataset: truncated file (%d bytes)", size)
	}
	footer := make([]byte, footerLen)
	if _, err := r.ReadAt(footer, size-footerLen); err != nil {
		return nil, fmt.Errorf("dataset: read footer: %w", err)
	}
	if string(footer[16:]) != footerMagicV3 {
		return nil, fmt.Errorf("dataset: bad footer (truncated or corrupt file)")
	}
	idxOff := int64(binary.BigEndian.Uint64(footer[0:8]))
	idxLen := int64(binary.BigEndian.Uint64(footer[8:16]))
	if idxOff < int64(len(magicV3)) || idxLen < 0 || idxOff+idxLen != size-footerLen {
		return nil, fmt.Errorf("dataset: corrupt index location (offset=%d length=%d size=%d)", idxOff, idxLen, size)
	}
	var idx index
	if err := gob.NewDecoder(io.NewSectionReader(r, idxOff, idxLen)).Decode(&idx); err != nil {
		return nil, fmt.Errorf("dataset: decode index: %w", err)
	}
	d := &reader{r: r, ahead: cfg.readAhead, meta: idx.Meta, chunks: idx.Chunks, m: newReaderMetrics(cfg.metrics)}
	for _, c := range d.chunks {
		if c.Offset < int64(len(magicV3)) || c.Length <= 0 || c.Offset+c.Length > idxOff || c.Count < 0 {
			return nil, fmt.Errorf("dataset: corrupt chunk entry (offset=%d length=%d count=%d)", c.Offset, c.Length, c.Count)
		}
		if c.Raw <= 0 || c.Raw > maxChunkRawBytes {
			return nil, fmt.Errorf("dataset: corrupt chunk entry (raw=%d)", c.Raw)
		}
		d.stored += int64(c.Count)
	}
	// The writer stores the index in canonical order already; sort
	// defensively so Records' ordering contract never depends on the
	// producer.
	sort.Slice(d.chunks, func(i, j int) bool {
		a, b := &d.chunks[i], &d.chunks[j]
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.Seq < b.Seq
	})
	return d, nil
}

// readerMetrics holds a RecordSource's resolved metric handles; all
// no-ops when the source was opened without WithMetrics.
type readerMetrics struct {
	chunks        *obs.Counter
	records       *obs.Counter
	bytes         *obs.Counter
	gunzipSeconds *obs.Histogram
}

func newReaderMetrics(reg *obs.Registry) readerMetrics {
	return readerMetrics{
		chunks:        reg.Counter("dataset_chunks_read_total"),
		records:       reg.Counter("dataset_records_read_total"),
		bytes:         reg.Counter("dataset_bytes_read_total"),
		gunzipSeconds: reg.WallHistogram("dataset_gunzip_seconds", []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5}),
	}
}

// reader is the dataset RecordSource: it holds only the index
// and decodes one chunk at a time, so memory stays bounded by the
// chunk size times the read-ahead window. All methods are safe for
// concurrent use — each Records call owns its decode scratch, drawn
// from a shared pool so repeated and sharded scans reuse buffers
// instead of reallocating them.
type reader struct {
	r      io.ReaderAt
	ahead  int
	meta   measure.DatasetMeta
	chunks []chunkInfo
	stored int64
	m      readerMetrics
}

// maxChunkRawBytes bounds the pre-compression chunk size the reader
// will buffer, so a corrupt index entry cannot drive a huge allocation.
const maxChunkRawBytes = 1 << 30

// Meta returns the stored run description.
func (d *reader) Meta() measure.DatasetMeta { return d.meta }

// Stored returns the total stored record count (from the index; no
// chunk is decoded).
func (d *reader) Stored() int64 { return d.stored }

// readScratch is one decode worker's reusable state: the compressed
// and raw chunk buffers, the gzip inflater, the record buffer the
// columnar decoder fills, and the decoder's dictionary scratch. A
// Records call draws scratches from the reader's pool, so steady-state
// scans allocate nothing per chunk.
type readScratch struct {
	comp    []byte
	payload []byte
	recs    []measure.Record
	zr      *gzip.Reader
	br      bytes.Reader
	dec     decodeScratch
}

// scratchPool recycles readScratch across Records calls and across
// readers: an analysis pipeline that opens several datasets (or the
// same one repeatedly) reuses the same chunk-sized buffers instead of
// re-growing them per open.
var scratchPool sync.Pool

func getScratch() *readScratch {
	if s, ok := scratchPool.Get().(*readScratch); ok && s != nil {
		return s
	}
	return &readScratch{}
}

// Records streams the records of every chunk overlapping [lo, hi) in
// canonical order, filtering records to the range. Chunks outside the
// range are never read from the file — a parallel ingest over client
// shards does proportional, not total, I/O per worker. The upcoming
// chunks decompress in background workers up to the read-ahead window; delivery order (and therefore the visit sequence)
// is the canonical chunk order regardless of worker timing.
func (d *reader) Records(lo, hi int, visit func(r *measure.Record) error) error {
	// Visited records are tallied locally and folded in once per call,
	// so a sharded ingest does not contend on one atomic per record.
	var visited int64
	defer func() { d.m.records.Add(visited) }()

	// Select the overlapping chunks once; both paths walk sel in order.
	sel := make([]int, 0, len(d.chunks))
	for i, c := range d.chunks {
		if int(c.Hi) < lo || int(c.Lo) >= hi {
			continue
		}
		sel = append(sel, i)
	}
	if len(sel) == 0 {
		return nil
	}

	emit := func(recs []measure.Record) error {
		for i := range recs {
			if ci := int(recs[i].ClientIdx); ci >= lo && ci < hi {
				if err := visit(&recs[i]); err != nil {
					return err
				}
				visited++
			}
		}
		return nil
	}

	// The pipeline only pays off when a second core can inflate while
	// the consumer visits; single-core it is pure handoff overhead.
	if d.ahead <= 1 || len(sel) == 1 || runtime.GOMAXPROCS(0) == 1 {
		scr := getScratch()
		defer scratchPool.Put(scr)
		for _, ci := range sel {
			recs, err := d.readChunk(d.chunks[ci], scr)
			if err != nil {
				return err
			}
			if err := emit(recs); err != nil {
				return err
			}
		}
		return nil
	}

	// Decode-ahead pipeline: workers claim chunks in order, decode each
	// into its own scratch, and park the result in the chunk's slot;
	// the consumer walks the slots in canonical order. The semaphore
	// caps decoded-but-unconsumed chunks at the read-ahead window, so
	// memory stays bounded no matter how far the workers could run
	// ahead of a slow visitor. Workers acquire a token BEFORE claiming
	// an index: every claimed-but-unconsumed chunk therefore holds a
	// token, so the window can never fill with later chunks while the
	// lowest outstanding one — the only slot the consumer will take
	// next — sits unclaimed.
	type decoded struct {
		recs []measure.Record
		scr  *readScratch
		err  error
	}
	slots := make([]chan decoded, len(sel))
	for i := range slots {
		slots[i] = make(chan decoded, 1)
	}
	sem := make(chan struct{}, d.ahead)
	abort := make(chan struct{})
	var next atomic.Int64
	next.Store(-1)
	workers := min(d.ahead, len(sel))
	for w := 0; w < workers; w++ {
		go func() {
			for {
				select {
				case sem <- struct{}{}:
				case <-abort:
					return
				}
				i := int(next.Add(1))
				if i >= len(sel) {
					<-sem
					return
				}
				scr := getScratch()
				recs, err := d.readChunk(d.chunks[sel[i]], scr)
				slots[i] <- decoded{recs: recs, scr: scr, err: err}
			}
		}()
	}
	for i := range slots {
		dc := <-slots[i]
		if dc.err != nil {
			close(abort)
			return dc.err
		}
		err := emit(dc.recs)
		scratchPool.Put(dc.scr)
		<-sem
		if err != nil {
			close(abort)
			return err
		}
	}
	return nil
}

// readChunk reads, inflates, and columnar-decodes one chunk into the
// scratch's reused buffers: zero steady-state allocations per record.
// The returned records alias scr.recs and are valid until the
// scratch's next use. The gzip trailer (CRC32 + length) is always
// verified, so a bit flip in the compressed body surfaces here even
// before the column validation sees it.
func (d *reader) readChunk(c chunkInfo, scr *readScratch) ([]measure.Record, error) {
	var start time.Time
	if d.m.gunzipSeconds != nil {
		start = time.Now()
	}
	if cap(scr.comp) < int(c.Length) {
		scr.comp = make([]byte, c.Length)
	}
	scr.comp = scr.comp[:c.Length]
	if _, err := d.r.ReadAt(scr.comp, c.Offset); err != nil {
		return nil, fmt.Errorf("dataset: chunk at %d: read: %w", c.Offset, err)
	}
	scr.br.Reset(scr.comp)
	if scr.zr == nil {
		zr, err := gzip.NewReader(&scr.br)
		if err != nil {
			return nil, fmt.Errorf("dataset: chunk at %d: gzip: %w", c.Offset, err)
		}
		scr.zr = zr
	} else if err := scr.zr.Reset(&scr.br); err != nil {
		return nil, fmt.Errorf("dataset: chunk at %d: gzip: %w", c.Offset, err)
	}
	if cap(scr.payload) < int(c.Raw) {
		scr.payload = make([]byte, c.Raw)
	}
	scr.payload = scr.payload[:c.Raw]
	if _, err := io.ReadFull(scr.zr, scr.payload); err != nil {
		return nil, fmt.Errorf("dataset: chunk at %d: inflate: %w", c.Offset, err)
	}
	// Drain to EOF: verifies the gzip checksum and catches a payload
	// longer than the index's raw length.
	var tail [1]byte
	if n, err := scr.zr.Read(tail[:]); n != 0 || err != io.EOF {
		if err == nil || err == io.EOF {
			return nil, fmt.Errorf("dataset: chunk at %d: payload longer than index raw length %d", c.Offset, c.Raw)
		}
		return nil, fmt.Errorf("dataset: chunk at %d: inflate: %w", c.Offset, err)
	}
	recs, err := decodeChunkV3(scr.payload, scr.recs, &scr.dec)
	if err != nil {
		return nil, fmt.Errorf("dataset: chunk at %d: decode: %w", c.Offset, err)
	}
	scr.recs = recs
	if len(recs) != int(c.Count) {
		return nil, fmt.Errorf("dataset: chunk at %d: %d records, index says %d", c.Offset, len(recs), c.Count)
	}
	d.m.chunks.Inc()
	d.m.bytes.Add(c.Length)
	if d.m.gunzipSeconds != nil {
		d.m.gunzipSeconds.Observe(time.Since(start).Seconds())
	}
	return recs, nil
}
