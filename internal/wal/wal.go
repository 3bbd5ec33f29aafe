package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"traj2hash/internal/hamming"
)

// Op identifies one mutation kind in the log.
type Op byte

// The mutation kinds a Record can carry.
const (
	// OpAdd records an item insertion under a new global id.
	OpAdd Op = 1
	// OpDelete records a tombstone of an existing id.
	OpDelete Op = 2
	// OpUpdate records an in-place replacement of an item's
	// representation under its existing id.
	OpUpdate Op = 3
)

// String returns the op's mnemonic.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Record is one logged mutation. Delete carries only the id; Add and
// Update carry the item's full representation — embedding, code, and the
// flattened trajectory (x0,y0,x1,y1,…) the facade stores alongside it —
// so replay can rebuild every layer of index state without re-encoding.
type Record struct {
	Op   Op
	ID   int
	Emb  []float64
	Code hamming.Code
	Traj []float64
}

// Frame layout. Every record is framed as
//
//	u32 payload length (LE) | u32 CRC-32/IEEE of payload (LE) | payload
//
// and the payload is
//
//	u8 op | u64 id | u32 nEmb | nEmb × f64 | u32 codeBits |
//	u32 nWords | nWords × u64 | u32 nTraj | nTraj × f64
//
// all little-endian, floats as IEEE-754 bits. The CRC covers the payload
// only; the length prefix is implicitly validated by the bounds check
// against the remaining file size during replay — a garbage length can
// only ever look "torn", never cause an oversized allocation.
const frameHeader = 8

// magic is the log file's first four bytes, versioned so a future format
// change is detectable instead of being misparsed as a torn tail.
var magic = []byte("TWL1")

// FrameLen is the number of bytes the record occupies in the log, frame
// header included — what an owner sizes a group of records by.
func (r Record) FrameLen() int {
	return frameHeader + 1 + 8 + 4 + 8*len(r.Emb) + 4 + 4 + 8*len(r.Code.Words) + 4 + 8*len(r.Traj)
}

// appendRecord encodes one framed record onto buf.
func appendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	p := len(buf)
	buf = append(buf, byte(r.Op))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Emb)))
	for _, v := range r.Emb {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Code.Bits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Code.Words)))
	for _, w := range r.Code.Words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Traj)))
	for _, v := range r.Traj {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	payload := buf[p:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodePayload parses one record payload. Errors here mean a CRC-valid
// payload with impossible structure — corruption the checksum missed, or
// a writer bug — and fail replay loudly rather than truncating silently.
func decodePayload(p []byte) (Record, error) {
	var r Record
	get32 := func() (uint32, bool) {
		if len(p) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v, true
	}
	get64 := func() (uint64, bool) {
		if len(p) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(p)
		p = p[8:]
		return v, true
	}
	fail := func() (Record, error) { return Record{}, fmt.Errorf("wal: malformed record payload") }
	if len(p) < 1 {
		return fail()
	}
	r.Op = Op(p[0])
	p = p[1:]
	id, ok := get64()
	if !ok {
		return fail()
	}
	r.ID = int(id)
	nEmb, ok := get32()
	if !ok || int(nEmb)*8 > len(p) {
		return fail()
	}
	if nEmb > 0 {
		r.Emb = make([]float64, nEmb)
		for i := range r.Emb {
			v, _ := get64()
			r.Emb[i] = math.Float64frombits(v)
		}
	}
	bits, ok := get32()
	if !ok {
		return fail()
	}
	r.Code.Bits = int(bits)
	nWords, ok := get32()
	if !ok || int(nWords)*8 > len(p) {
		return fail()
	}
	if nWords > 0 {
		r.Code.Words = make([]uint64, nWords)
		for i := range r.Code.Words {
			w, _ := get64()
			r.Code.Words[i] = w
		}
	}
	nTraj, ok := get32()
	if !ok || int(nTraj)*8 > len(p) {
		return fail()
	}
	if nTraj > 0 {
		r.Traj = make([]float64, nTraj)
		for i := range r.Traj {
			v, _ := get64()
			r.Traj[i] = math.Float64frombits(v)
		}
	}
	if len(p) != 0 {
		return fail()
	}
	return r, nil
}

// Replayed is the outcome of parsing a log file: the decoded records,
// whether the file ended in a torn (incomplete or checksum-failing)
// record, and the byte size of the valid prefix — the offset a recovery
// truncates the file to when Torn is set.
type Replayed struct {
	Records []Record
	Torn    bool
	Valid   int64
}

// parseLog decodes a whole log image. A missing or zero-length magic
// means an empty log (fresh file); a wrong magic is corruption. Framing
// violations at the END of the file — a short frame header, a length
// prefix pointing past EOF, or a CRC mismatch — are the torn-tail
// signature of a crash mid-append and mark the file truncatable at the
// last valid record; a CRC-valid payload that fails structural decoding
// is reported as a hard error instead.
func parseLog(data []byte) (Replayed, error) {
	var out Replayed
	if len(data) == 0 {
		return out, nil
	}
	if len(data) < len(magic) {
		// A crash during the very first write can tear even the magic;
		// the valid prefix is empty and the header gets rewritten.
		out.Torn = true
		return out, nil
	}
	if string(data[:len(magic)]) != string(magic) {
		return out, fmt.Errorf("wal: bad log magic (not a %s log)", magic)
	}
	off := int64(len(magic))
	out.Valid = off
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return out, nil
		}
		if len(rest) < frameHeader {
			out.Torn = true
			return out, nil
		}
		n := int64(binary.LittleEndian.Uint32(rest))
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n > int64(len(rest))-frameHeader {
			out.Torn = true
			return out, nil
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			out.Torn = true
			return out, nil
		}
		r, err := decodePayload(payload)
		if err != nil {
			return out, fmt.Errorf("wal: record at offset %d: %w", off, err)
		}
		out.Records = append(out.Records, r)
		off += frameHeader + n
		out.Valid = off
	}
}
