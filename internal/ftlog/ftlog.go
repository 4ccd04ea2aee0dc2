// Package ftlog defines the wire format of the log-based fault-tolerance
// strategy's superstep logs (after Yan, Cheng & Yang, arXiv:1601.06496).
//
// At the end of each committed superstep, every node persists one log file
// holding (a) the state deltas of its masters touched this superstep and
// (b) the raw sync payloads it received this superstep, in receive order.
// On failure, only the reborn node replays its own chain of log files;
// survivors do nothing. A full record (compaction) replaces the delta +
// message sections with a snapshot of every entry, bounding the chain.
//
// File layout (little-endian):
//
//	u32 superstep
//	u8  kind            (KindDelta | KindFull)
//	u32 recordCount
//	recordCount x record:
//	  u32 pos | u8 flags | i32 stamp | u32 valLen | valLen value bytes
//	u32 msgCount
//	msgCount x message:
//	  u32 len | len payload bytes
//
// The value bytes are opaque to this package (the engine's value codec
// writes them); the explicit valLen keeps decoding bounds-checkable
// without knowing the codec. Encoding is split into append/patch helpers
// so the engine can stream chunk-parallel encodes into pooled buffers
// without per-record closures or copies.
package ftlog

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Log-file kinds.
const (
	// KindDelta holds touched-master deltas plus the superstep's received
	// sync payloads.
	KindDelta byte = 1
	// KindFull holds a snapshot record for every entry and no messages
	// (compaction; replay chains restart here).
	KindFull byte = 2
)

// Record flag bits.
const (
	// FlagActive carries the master's committed activity.
	FlagActive byte = 1 << 0
	// FlagLastActivate carries the committed scatter flag.
	FlagLastActivate byte = 1 << 1
)

// headerLen is the fixed file prefix: superstep + kind + record count.
const headerLen = 4 + 1 + 4

// recordPrefixLen is the fixed part of one record before the value bytes.
const recordPrefixLen = 4 + 1 + 4 + 4

// AppendFileHeader begins a log file: superstep and kind. The caller
// reserves the record-count slot next with AppendCountPlaceholder.
func AppendFileHeader(buf []byte, superstep uint32, kind byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, superstep)
	return append(buf, kind)
}

// AppendCountPlaceholder reserves a u32 count slot, returning its offset
// for PatchCount.
func AppendCountPlaceholder(buf []byte) ([]byte, int) {
	at := len(buf)
	return binary.LittleEndian.AppendUint32(buf, 0), at
}

// PatchCount writes n into the count slot reserved at `at`.
func PatchCount(buf []byte, at, n int) {
	binary.LittleEndian.PutUint32(buf[at:at+4], uint32(n))
}

// AppendRecordPrefix appends one record's fixed fields and reserves its
// valLen slot; the caller appends the value bytes and calls PatchValLen
// with the returned offset.
func AppendRecordPrefix(buf []byte, pos uint32, flags byte, stamp int32) ([]byte, int) {
	buf = binary.LittleEndian.AppendUint32(buf, pos)
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(stamp))
	at := len(buf)
	return binary.LittleEndian.AppendUint32(buf, 0), at
}

// PatchValLen records that the value bytes run from the valLen slot's end
// to the current end of buf.
func PatchValLen(buf []byte, at int) {
	binary.LittleEndian.PutUint32(buf[at:at+4], u32Len(len(buf)-at-4))
}

// AppendMessage appends one length-prefixed message payload.
func AppendMessage(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, u32Len(len(payload)))
	return append(buf, payload...)
}

// u32Len narrows a byte length to its u32 wire field, panicking past 4 GiB
// rather than letting the prefix wrap.
func u32Len(n int) uint32 {
	if int64(n) > math.MaxUint32 {
		panic("ftlog: length overflows its u32 wire field")
	}
	return uint32(n)
}

// Record is one decoded state record. Val aliases the decoder's input
// buffer; callers copy what they keep.
type Record struct {
	Pos   uint32
	Flags byte
	Stamp int32
	Val   []byte
}

// Decoder walks one log file with strict wire bounds: every length and
// count is validated against the remaining bytes before any slice is
// taken, so hostile inputs error instead of panicking or over-reading.
type Decoder struct {
	buf       []byte
	off       int
	superstep uint32
	kind      byte
	recLeft   int
	msgLeft   int
	inMsgs    bool
}

// NewDecoder parses the file header and record count.
func NewDecoder(data []byte) (*Decoder, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("ftlog: truncated header: %d bytes", len(data))
	}
	d := &Decoder{
		buf:       data,
		off:       headerLen,
		superstep: binary.LittleEndian.Uint32(data),
		kind:      data[4],
	}
	if d.kind != KindDelta && d.kind != KindFull {
		return nil, fmt.Errorf("ftlog: unknown log kind %d", d.kind)
	}
	count := binary.LittleEndian.Uint32(data[5:])
	// A record is at least its fixed prefix; a count the buffer cannot hold
	// is corrupt, not merely truncated.
	if uint64(count)*recordPrefixLen > uint64(len(data)-headerLen) {
		return nil, fmt.Errorf("ftlog: record count %d exceeds %d remaining bytes", count, len(data)-headerLen)
	}
	d.recLeft = int(count)
	return d, nil
}

// Superstep returns the file's superstep.
func (d *Decoder) Superstep() uint32 { return d.superstep }

// Kind returns the file's kind (KindDelta or KindFull).
func (d *Decoder) Kind() byte { return d.kind }

// NextRecord returns the next state record, or ok=false after the last.
func (d *Decoder) NextRecord() (rec Record, ok bool, err error) {
	if d.recLeft == 0 {
		return Record{}, false, nil
	}
	if d.inMsgs {
		return Record{}, false, fmt.Errorf("ftlog: NextRecord after message section")
	}
	if len(d.buf)-d.off < recordPrefixLen {
		return Record{}, false, fmt.Errorf("ftlog: truncated record at offset %d", d.off)
	}
	b := d.buf[d.off:]
	rec.Pos = binary.LittleEndian.Uint32(b)
	rec.Flags = b[4]
	rec.Stamp = int32(binary.LittleEndian.Uint32(b[5:]))
	valLen := int(binary.LittleEndian.Uint32(b[9:]))
	d.off += recordPrefixLen
	if valLen < 0 || valLen > len(d.buf)-d.off {
		return Record{}, false, fmt.Errorf("ftlog: record value length %d exceeds %d remaining bytes", valLen, len(d.buf)-d.off)
	}
	rec.Val = d.buf[d.off : d.off+valLen]
	d.off += valLen
	d.recLeft--
	return rec, true, nil
}

// NextMessage returns the next logged payload, or ok=false after the last.
// The first call crosses into the message section (KindDelta files only;
// KindFull files have none).
func (d *Decoder) NextMessage() (payload []byte, ok bool, err error) {
	if !d.inMsgs {
		if d.recLeft > 0 {
			return nil, false, fmt.Errorf("ftlog: NextMessage with %d records unread", d.recLeft)
		}
		if d.kind == KindFull {
			return nil, false, nil
		}
		if len(d.buf)-d.off < 4 {
			return nil, false, fmt.Errorf("ftlog: truncated message count at offset %d", d.off)
		}
		count := binary.LittleEndian.Uint32(d.buf[d.off:])
		d.off += 4
		// Each message costs at least its length prefix.
		if uint64(count)*4 > uint64(len(d.buf)-d.off) {
			return nil, false, fmt.Errorf("ftlog: message count %d exceeds %d remaining bytes", count, len(d.buf)-d.off)
		}
		d.msgLeft = int(count)
		d.inMsgs = true
	}
	if d.msgLeft == 0 {
		return nil, false, nil
	}
	if len(d.buf)-d.off < 4 {
		return nil, false, fmt.Errorf("ftlog: truncated message length at offset %d", d.off)
	}
	msgLen := int(binary.LittleEndian.Uint32(d.buf[d.off:]))
	d.off += 4
	if msgLen < 0 || msgLen > len(d.buf)-d.off {
		return nil, false, fmt.Errorf("ftlog: message length %d exceeds %d remaining bytes", msgLen, len(d.buf)-d.off)
	}
	payload = d.buf[d.off : d.off+msgLen]
	d.off += msgLen
	d.msgLeft--
	return payload, true, nil
}
