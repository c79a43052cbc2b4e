package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"webfail/internal/measure"
	"webfail/internal/obs"
)

// OpenOption configures Open.
type OpenOption func(*openCfg)

type openCfg struct {
	metrics *obs.Registry
}

// WithMetrics instruments the returned RecordSource: chunks, records,
// and compressed bytes read are counted into reg, and gunzip+decode
// time accumulates as a wall-clock histogram. Record counts are
// deterministic; chunk and byte counts additionally depend on how many
// reading shards overlap each chunk.
func WithMetrics(reg *obs.Registry) OpenOption {
	return func(c *openCfg) { c.metrics = reg }
}

// Open returns a RecordSource over the dataset at r: a chunk-ranged
// streaming reader that holds only the index in memory. size is the
// total file size (e.g. from os.File.Stat). A file that is not a
// complete dataset in the current format — including one of an earlier
// format generation — is an error.
func Open(r io.ReaderAt, size int64, opts ...OpenOption) (RecordSource, error) {
	var cfg openCfg
	for _, opt := range opts {
		opt(&cfg)
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
	d := &reader{r: r, meta: idx.Meta, chunks: idx.Chunks, m: newReaderMetrics(cfg.metrics)}
	for _, c := range d.chunks {
		if c.Offset < int64(len(magicV3)) || c.Length <= 0 || c.Offset+c.Length > idxOff || c.Count < 0 {
			return nil, fmt.Errorf("dataset: corrupt chunk entry (offset=%d length=%d count=%d)", c.Offset, c.Length, c.Count)
		}
		if c.Raw <= 0 || c.Raw > maxChunkRawBytes || c.Raw > c.Length*maxDeflateRatio {
			return nil, fmt.Errorf("dataset: corrupt chunk entry (raw=%d, length=%d)", c.Raw, c.Length)
		}
		// Ranged reads skip chunks by [Lo, Hi], so a range outside the
		// roster would silently drop records from sharded ingests.
		if c.Lo < 0 || c.Lo > c.Hi || int(c.Hi) >= d.meta.Clients {
			return nil, fmt.Errorf("dataset: corrupt chunk entry (offset=%d clients [%d, %d], %d in roster)",
				c.Offset, c.Lo, c.Hi, d.meta.Clients)
		}
		d.stored += int64(c.Count)
	}
	// The writer stores the index in canonical order already; sort
	// defensively so Records' ordering contract never depends on the
	// producer.
	sortCanonical(d.chunks)
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
// chunk size. All methods are safe for concurrent use — each Records
// call owns its decode scratch, drawn from a shared pool so repeated
// and sharded scans reuse buffers instead of reallocating them.
type reader struct {
	r      io.ReaderAt
	meta   measure.DatasetMeta
	chunks []chunkInfo
	stored int64
	m      readerMetrics
}

// maxChunkRawBytes bounds the pre-compression chunk size the reader
// will buffer, so a corrupt index entry cannot drive a huge allocation.
const maxChunkRawBytes = 1 << 30

// maxDeflateRatio is the most deflate can expand its input (a 258-byte
// match in one bit is 1032:1). A chunk claiming a larger raw length is
// corrupt, and refusing it keeps the buffer a corrupt entry can ask for
// in proportion to the file.
const maxDeflateRatio = 1032

// Meta returns the stored run description.
func (d *reader) Meta() measure.DatasetMeta { return d.meta }

// Stored returns the total stored record count (from the index; no
// chunk is decoded).
func (d *reader) Stored() int64 { return d.stored }

// readScratch is one Records call's reusable state: the compressed
// and raw chunk buffers, the gzip inflater, the record buffer the
// columnar decoder fills, and the decoder's dictionary scratch.
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
// re-growing them per open, so steady-state scans allocate nothing per
// chunk.
var scratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// chunkWriterPool recycles the sinks' chunk gzip writers. Even at
// chunkLevel a gzip writer carries a full flate compressor, about 650 KB
// of hash tables that stored blocks never read; Reset keeps it, so a
// save builds one per concurrent sink at most, not one per sink.
var chunkWriterPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, chunkLevel) // a valid level: no error
	return zw
}}

// Records streams the records of every chunk overlapping [lo, hi) in
// canonical order, filtering records to the range. Each chunk is read,
// inflated and decoded inline, one at a time. Chunks outside the range
// are never read from the file — a parallel ingest over client shards
// does proportional, not total, I/O per worker.
func (d *reader) Records(lo, hi int, visit func(r *measure.Record) error) error {
	// Visited records are tallied locally and folded in once per call,
	// so a sharded ingest does not contend on one atomic per record.
	var visited int64
	defer func() { d.m.records.Add(visited) }()

	scr := scratchPool.Get().(*readScratch)
	defer scratchPool.Put(scr)
	for _, c := range d.chunks {
		if int(c.Hi) < lo || int(c.Lo) >= hi {
			continue
		}
		recs, err := d.readChunk(c, scr)
		if err != nil {
			return err
		}
		for i := range recs {
			r := &recs[i]
			// Ranged reads trust the index's [Lo, Hi], and analysis
			// passes index arrays by client and site: a record outside
			// either bound is corrupt. The check rides this loop, which
			// loads every record anyway.
			if r.ClientIdx < c.Lo || r.ClientIdx > c.Hi || int(r.SiteIdx) >= d.meta.Websites {
				return fmt.Errorf("dataset: chunk at %d: record %d (client %d, site %d) outside clients [%d, %d] or %d websites",
					c.Offset, i, r.ClientIdx, r.SiteIdx, c.Lo, c.Hi, d.meta.Websites)
			}
			if ci := int(r.ClientIdx); ci >= lo && ci < hi {
				if err := visit(r); err != nil {
					return err
				}
				visited++
			}
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
