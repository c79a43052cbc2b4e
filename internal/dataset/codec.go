package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// The chunk codec: a hand-rolled columnar encoding of
// []measure.Record. Each chunk stores its records as per-field arrays
// ("columns"), each independently encoded with the cheapest scheme its
// value distribution admits:
//
//   - delta + zigzag varint for the monotone columns (ClientIdx, At):
//     the canonical record stream is client-major and per-client
//     time-ordered, so consecutive deltas are tiny and most values fit
//     in one byte;
//   - zigzag varint for the small-integer columns (SiteIdx, Conns,
//     StatusCode, Bytes, DataPkts, Retransmits);
//   - unsigned varint for the non-negative duration columns (DNSTime,
//     Elapsed);
//   - one raw byte per record for the dense-ID enum columns the
//     interning layer already keeps small (Category, DNS, Stage,
//     FailKind, Redirects);
//   - a bitset for Proxied;
//   - a per-chunk dictionary for ReplicaIP: the few distinct replica
//     addresses a chunk touches are stored once (first-appearance
//     order), and the column is a varint index stream.
//
// Every column is length-prefixed and the decoder validates lengths,
// value ranges, and dictionary indexes, so a bit flip anywhere in the
// payload surfaces as an error, never a panic or a silently wrong
// record. Encoding and decoding are allocation-free in steady state:
// both sides work through reused scratch (encodeScratch/decodeScratch)
// and append into caller-owned buffers.
//
// Chunk payload layout (this is the byte stream inside the chunk's gzip
// frame, which uses stored deflate blocks — see chunkLevel):
//
//	byte    chunkFormatV3 (0x33)
//	uvarint record count
//	17 x column:  uvarint encoded length | column bytes
//
// The column order is fixed (the field order of measure.Record); adding
// a record field means appending a column and bumping chunkFormatV3.
const chunkFormatV3 = 0x33

// maxChunkDecodeRecords bounds the record count a decoder will accept
// from a chunk header, so a corrupt count cannot drive a huge
// allocation before the per-column validation catches it.
const maxChunkDecodeRecords = 1 << 24

// encodeScratch carries the encoder's reusable state: the ReplicaIP
// dictionary map and slice survive across chunks (cleared, not
// reallocated), so steady-state encoding performs zero heap allocations
// per record.
type encodeScratch struct {
	dict    []netip.Addr
	dictIdx map[netip.Addr]uint32
	// col stages one column's bytes before its length prefix is known.
	col []byte
}

// appendChunkV3 appends the columnar encoding of recs to dst and
// returns the extended slice. recs must be non-empty.
func appendChunkV3(dst []byte, recs []measure.Record, sc *encodeScratch) []byte {
	if sc.dictIdx == nil {
		sc.dictIdx = make(map[netip.Addr]uint32)
	}
	dst = append(dst, chunkFormatV3)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))

	// Monotone columns: delta + zigzag varint.
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		prev := int64(0)
		for i := range recs {
			v := int64(recs[i].ClientIdx)
			col = appendZigzag(col, v-prev)
			prev = v
		}
		return col
	})
	// SiteIdx: small non-monotone integers.
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = appendZigzag(col, int64(recs[i].SiteIdx))
		}
		return col
	})
	// At: monotone within a client, near-monotone across the chunk.
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		prev := int64(0)
		for i := range recs {
			v := int64(recs[i].At)
			col = appendZigzag(col, v-prev)
			prev = v
		}
		return col
	})
	// Enum byte columns.
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = append(col, byte(recs[i].Category))
		}
		return col
	})
	// Proxied bitset.
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := 0; i < len(recs); i += 8 {
			var b byte
			for j := 0; j < 8 && i+j < len(recs); j++ {
				if recs[i+j].Proxied {
					b |= 1 << j
				}
			}
			col = append(col, b)
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = append(col, byte(recs[i].DNS))
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = binary.AppendUvarint(col, uint64(recs[i].DNSTime))
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = append(col, byte(recs[i].Stage))
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = append(col, byte(recs[i].FailKind))
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = appendZigzag(col, int64(recs[i].Conns))
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = appendZigzag(col, int64(recs[i].StatusCode))
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = appendZigzag(col, int64(recs[i].Bytes))
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = append(col, byte(recs[i].Redirects))
		}
		return col
	})
	// ReplicaIP dictionary column: dict entries in first-appearance
	// order, then one varint dict index per record.
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		sc.dict = sc.dict[:0]
		clear(sc.dictIdx)
		for i := range recs {
			a := recs[i].ReplicaIP
			if _, ok := sc.dictIdx[a]; !ok {
				sc.dictIdx[a] = uint32(len(sc.dict))
				sc.dict = append(sc.dict, a)
			}
		}
		col = binary.AppendUvarint(col, uint64(len(sc.dict)))
		for _, a := range sc.dict {
			switch {
			case !a.IsValid():
				col = append(col, 0)
			case a.Is4():
				b := a.As4()
				col = append(col, 4)
				col = append(col, b[:]...)
			default:
				b := a.As16()
				col = append(col, 16)
				col = append(col, b[:]...)
			}
		}
		for i := range recs {
			col = binary.AppendUvarint(col, uint64(sc.dictIdx[recs[i].ReplicaIP]))
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = binary.AppendUvarint(col, uint64(recs[i].Elapsed))
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = appendZigzag(col, int64(recs[i].DataPkts))
		}
		return col
	})
	dst = appendColumn(dst, sc, func(col []byte) []byte {
		for i := range recs {
			col = appendZigzag(col, int64(recs[i].Retransmits))
		}
		return col
	})
	return dst
}

// appendColumn stages one column in the scratch buffer, then appends
// its length prefix and bytes to dst.
func appendColumn(dst []byte, sc *encodeScratch, fill func([]byte) []byte) []byte {
	sc.col = fill(sc.col[:0])
	dst = binary.AppendUvarint(dst, uint64(len(sc.col)))
	return append(dst, sc.col...)
}

// decodeScratch carries the decoder's reusable state; one per decoding
// worker, so chunk decoding allocates nothing in steady state.
type decodeScratch struct {
	dict []netip.Addr
	// vals stages one varint column's decoded values so the per-field
	// loops run over a flat []uint64 instead of re-parsing bytes.
	vals []uint64
}

// decodeUvarints fills vals from col, which must contain exactly
// len(vals) unsigned varints. Values small enough for one byte — the
// common case for every column this codec stages — take a branch and an
// index bump; longer encodings fall back to binary.Uvarint.
func decodeUvarints(vals []uint64, col []byte) error {
	k := 0
	for i := range vals {
		if k < len(col) {
			if b := col[k]; b < 0x80 {
				vals[i] = uint64(b)
				k++
				continue
			}
		}
		v, n := binary.Uvarint(col[k:])
		if n <= 0 {
			return fmt.Errorf("corrupt varint")
		}
		vals[i] = v
		k += n
	}
	return drained(col[k:])
}

// unzigzag unfolds a zigzag-encoded value.
func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// decodeChunkV3 decodes a columnar chunk payload into dst (reused:
// grown once to the chunk record count, then overwritten in place) and
// returns the record slice. Every structural invariant is checked —
// format byte, record count, column lengths, varint termination, value
// ranges, dictionary bounds, and trailing bytes — so corrupt input
// yields an error, never a panic.
func decodeChunkV3(payload []byte, dst []measure.Record, sc *decodeScratch) ([]measure.Record, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("chunk too short (%d bytes)", len(payload))
	}
	if payload[0] != chunkFormatV3 {
		return nil, fmt.Errorf("unknown chunk format 0x%02x", payload[0])
	}
	p := payload[1:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > maxChunkDecodeRecords {
		return nil, fmt.Errorf("corrupt record count")
	}
	p = p[n:]
	// Every record occupies at least 16 payload bytes across the varint
	// and byte columns, so a count the remaining payload cannot possibly
	// hold is corrupt — checked before the count sizes any allocation.
	if count > uint64(len(p))/16 {
		return nil, fmt.Errorf("corrupt record count (%d records in %d payload bytes)", count, len(p))
	}
	nr := int(count)
	if cap(dst) < nr {
		dst = make([]measure.Record, nr)
	}
	// No zeroing pass: the 17 columns below cover every Record field, so
	// each slot is fully overwritten.
	dst = dst[:nr]
	if cap(sc.vals) < nr {
		sc.vals = make([]uint64, nr)
	}
	vals := sc.vals[:nr]

	nextCol := func() ([]byte, error) {
		l, n := binary.Uvarint(p)
		if n <= 0 || l > uint64(len(p)-n) {
			return nil, fmt.Errorf("corrupt column length")
		}
		col := p[n : n+int(l)]
		p = p[n+int(l):]
		return col, nil
	}

	// ClientIdx (delta).
	col, err := nextCol()
	if err != nil {
		return nil, err
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("ClientIdx: %w", err)
	}
	// Client and site indexes are array indexes downstream (client
	// grids, per-site tallies); the writer never emits negative values,
	// so the decoder rejects them — a crafted or corrupt file must
	// surface as an error here, never as an index panic in an analysis
	// pass.
	prev := int64(0)
	for i := range dst {
		prev += unzigzag(vals[i])
		if prev < 0 || prev > math.MaxInt32 {
			return nil, fmt.Errorf("ClientIdx out of range")
		}
		dst[i].ClientIdx = int32(prev)
	}
	// SiteIdx.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("SiteIdx: %w", err)
	}
	for i := range dst {
		v := unzigzag(vals[i])
		if v < 0 || v > math.MaxInt32 {
			return nil, fmt.Errorf("SiteIdx: corrupt value")
		}
		dst[i].SiteIdx = int32(v)
	}
	// At (delta).
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("At: %w", err)
	}
	prev = 0
	for i := range dst {
		prev += unzigzag(vals[i])
		dst[i].At = simnet.Time(prev)
	}
	// Category.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if len(col) != nr {
		return nil, fmt.Errorf("Category: column length %d, want %d", len(col), nr)
	}
	for i := range dst {
		dst[i].Category = workload.Category(col[i])
	}
	// Proxied bitset.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if len(col) != (nr+7)/8 {
		return nil, fmt.Errorf("Proxied: column length %d, want %d", len(col), (nr+7)/8)
	}
	for i := range dst {
		dst[i].Proxied = col[i/8]&(1<<(i%8)) != 0
	}
	// DNS.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if len(col) != nr {
		return nil, fmt.Errorf("DNS: column length %d, want %d", len(col), nr)
	}
	for i := range dst {
		dst[i].DNS = measure.DNSOutcome(col[i])
	}
	// DNSTime.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("DNSTime: %w", err)
	}
	for i := range dst {
		dst[i].DNSTime = time.Duration(vals[i])
	}
	// Stage.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if len(col) != nr {
		return nil, fmt.Errorf("Stage: column length %d, want %d", len(col), nr)
	}
	for i := range dst {
		dst[i].Stage = httpsim.Stage(col[i])
	}
	// FailKind.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if len(col) != nr {
		return nil, fmt.Errorf("FailKind: column length %d, want %d", len(col), nr)
	}
	for i := range dst {
		dst[i].FailKind = httpsim.ConnFailKind(col[i])
	}
	// Conns.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("Conns: %w", err)
	}
	for i := range dst {
		v := unzigzag(vals[i])
		if v < math.MinInt16 || v > math.MaxInt16 {
			return nil, fmt.Errorf("Conns: corrupt value")
		}
		dst[i].Conns = int16(v)
	}
	// StatusCode.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("StatusCode: %w", err)
	}
	for i := range dst {
		v := unzigzag(vals[i])
		if v < math.MinInt16 || v > math.MaxInt16 {
			return nil, fmt.Errorf("StatusCode: corrupt value")
		}
		dst[i].StatusCode = int16(v)
	}
	// Bytes.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("Bytes: %w", err)
	}
	for i := range dst {
		v := unzigzag(vals[i])
		if v < math.MinInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("Bytes: corrupt value")
		}
		dst[i].Bytes = int32(v)
	}
	// Redirects.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if len(col) != nr {
		return nil, fmt.Errorf("Redirects: column length %d, want %d", len(col), nr)
	}
	for i := range dst {
		dst[i].Redirects = int8(col[i])
	}
	// ReplicaIP dictionary.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	nd, err := takeUvarint(&col)
	if err != nil || nd > uint64(nr) {
		return nil, fmt.Errorf("ReplicaIP: corrupt dictionary size")
	}
	if cap(sc.dict) < int(nd) {
		sc.dict = make([]netip.Addr, int(nd))
	}
	sc.dict = sc.dict[:int(nd)]
	for i := range sc.dict {
		if len(col) < 1 {
			return nil, fmt.Errorf("ReplicaIP: truncated dictionary")
		}
		l := int(col[0])
		col = col[1:]
		if l != 0 && l != 4 && l != 16 {
			return nil, fmt.Errorf("ReplicaIP: bad address length %d", l)
		}
		if len(col) < l {
			return nil, fmt.Errorf("ReplicaIP: truncated address")
		}
		switch l {
		case 0:
			sc.dict[i] = netip.Addr{}
		case 4:
			sc.dict[i] = netip.AddrFrom4([4]byte(col[:4]))
		case 16:
			sc.dict[i] = netip.AddrFrom16([16]byte(col[:16]))
		}
		col = col[l:]
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("ReplicaIP: %w", err)
	}
	for i := range dst {
		idx := vals[i]
		if idx >= uint64(len(sc.dict)) {
			return nil, fmt.Errorf("ReplicaIP: corrupt dictionary index")
		}
		dst[i].ReplicaIP = sc.dict[idx]
	}
	// Elapsed.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("Elapsed: %w", err)
	}
	for i := range dst {
		dst[i].Elapsed = time.Duration(vals[i])
	}
	// DataPkts.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("DataPkts: %w", err)
	}
	for i := range dst {
		v := unzigzag(vals[i])
		if v < math.MinInt16 || v > math.MaxInt16 {
			return nil, fmt.Errorf("DataPkts: corrupt value")
		}
		dst[i].DataPkts = int16(v)
	}
	// Retransmits.
	if col, err = nextCol(); err != nil {
		return nil, err
	}
	if err := decodeUvarints(vals, col); err != nil {
		return nil, fmt.Errorf("Retransmits: %w", err)
	}
	for i := range dst {
		v := unzigzag(vals[i])
		if v < math.MinInt16 || v > math.MaxInt16 {
			return nil, fmt.Errorf("Retransmits: corrupt value")
		}
		dst[i].Retransmits = int16(v)
	}

	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after last column", len(p))
	}
	return dst, nil
}

// drained errors when a varint column has leftover bytes after its
// record count was consumed (a length/count mismatch).
func drained(col []byte) error {
	if len(col) != 0 {
		return fmt.Errorf("%d leftover column bytes", len(col))
	}
	return nil
}

// appendZigzag appends a zigzag-folded signed varint.
func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// takeUvarint consumes one unsigned varint from *col.
func takeUvarint(col *[]byte) (uint64, error) {
	v, n := binary.Uvarint(*col)
	if n <= 0 {
		return 0, fmt.Errorf("corrupt varint")
	}
	*col = (*col)[n:]
	return v, nil
}
