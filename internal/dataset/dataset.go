// Package dataset is the stored-data layer: the on-disk format for
// performance-record datasets ("WEBFAILDS3"), its streaming writer
// (Writer, one Sink per writing stream) and the RecordSource
// abstraction the rest of the system reads through.
//
// A dataset file is chunked, so analysis can start before the whole
// file is decoded and can shard its ingest without rescanning every
// record per shard:
//
//	magic "WEBFAILDS3\n"
//	chunk 0 … chunk n-1     each an independently gzip-framed columnar
//	                        block of at most ChunkRecords records (see
//	                        codec.go)
//	index                   gob(index{Meta, Chunks}) — per chunk: offset,
//	                        length, raw (pre-compression) length, record
//	                        count, client range [Lo, Hi], stream id and
//	                        per-stream sequence number
//	footer                  index offset (8B BE) | index length (8B BE) |
//	                        "WFDS3IDX"
//
// Because every chunk carries its client range in the index, a reader
// can open only the chunks overlapping a client range — the exact
// partition measure.ShardRange hands to parallel ingest workers — and
// writers (one Sink per RunParallel shard) can append chunks to the same
// file concurrently: chunk order in the file does not matter, the index
// is sorted into canonical client-major order at Close.
//
// Chunk I/O is synchronous and the package starts no goroutines: a
// Sink encodes, compresses and appends each chunk it seals, and
// Records reads, inflates and decodes each chunk inline, both through
// reused buffers so steady-state record I/O allocates nothing per
// record. The concurrency is the callers' — one Sink per run shard,
// one Records call per ingest shard. Chunk boundaries are fixed by
// record count, so the stored record stream is bit-deterministic for a
// given run, and a single-sink file is byte-for-byte repeatable (see
// DESIGN.md §5j).
//
// Compatibility policy: this layout is the only format, and every file
// written in it stays readable. Open rejects files of the earlier
// generations ("WEBFAILDS1", "WEBFAILDS2") with an error.
package dataset

import (
	"sort"

	"webfail/internal/measure"
)

const (
	// magicV3 opens every dataset file. The earlier generations' magics
	// share its "WEBFAILDS" prefix and length.
	magicV3 = "WEBFAILDS3\n"
	// footerMagicV3 ends every dataset file; Open locates the index
	// from it.
	footerMagicV3 = "WFDS3IDX"
	// footerLen is offset (8) + length (8) + footer magic (8).
	footerLen = 24
)

// DefaultChunkRecords is the chunk capacity used when Options leaves
// ChunkRecords unset: large enough that compression amortizes well,
// small enough that a reader's working set stays in the low megabytes.
const DefaultChunkRecords = 8192

// RecordSource streams the stored records of a dataset. Implementations
// are safe for concurrent Records calls, so parallel ingest workers can
// each read their own client range.
type RecordSource interface {
	// Meta returns the run description stored with the dataset.
	Meta() measure.DatasetMeta
	// Stored returns the number of stored records.
	Stored() int64
	// Records calls visit for every stored record whose ClientIdx lies
	// in [lo, hi), in canonical order: client-major, per-client
	// time-ordered — the order a serial run emits. A non-nil error from
	// visit aborts the scan and is returned.
	//
	// The pointed-to Record is only valid for the duration of the visit
	// call: sources decode into reused buffers (the streaming ingest
	// contract that keeps per-record allocations at zero), so a visitor
	// that retains records must copy them.
	Records(lo, hi int, visit func(r *measure.Record) error) error
}

// AllRecords streams every stored record of src in canonical order.
func AllRecords(src RecordSource, visit func(r *measure.Record) error) error {
	return src.Records(0, int(^uint32(0)>>1), visit)
}

// chunkInfo is one index entry: where a chunk lives in the file and
// which records it holds.
type chunkInfo struct {
	Offset int64 // byte offset of the gzip stream
	Length int64 // compressed length in bytes
	Raw    int64 // pre-compression payload length
	Count  int32 // records in the chunk
	Lo, Hi int32 // min/max ClientIdx in the chunk (inclusive)
	Stream int32 // writing sink's stream id
	Seq    int32 // per-stream chunk ordinal
}

// sortCanonical puts index entries in canonical order: client-major.
// Streams own disjoint client ranges, so Lo never ties across streams;
// within a stream, Seq is the write order.
func sortCanonical(chunks []chunkInfo) {
	sort.Slice(chunks, func(i, j int) bool {
		a, b := &chunks[i], &chunks[j]
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.Seq < b.Seq
	})
}

// index is the trailing index, gob-encoded between the last chunk and
// the footer.
type index struct {
	Meta   measure.DatasetMeta
	Chunks []chunkInfo
}
