package gossip

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire format of one gossip datagram, little endian:
//
//	u8  version (wireVersion)
//	u8  message kind (MsgPing..MsgFwdAck)
//	u32 sender node id
//	u32 subject node id (probe target / probe origin; 0 where unused)
//	u16 piggybacked update count
//	count * { u8 update kind | u32 node id | u32 incarnation }
//
// Every decoder bound is checked against the remaining payload before any
// allocation, and trailing bytes are an error — the same contract as the
// serve-mode codec in internal/core/servewire.go.

// wireVersion guards against decoding frames from a different protocol
// revision (and gives the fuzzer a cheap reject path).
const wireVersion = 1

// updateWireBytes is the encoded size of one piggybacked update.
const updateWireBytes = 9

// maxWireUpdates bounds the update count a single datagram may carry;
// encoders stay far below it (maxPiggyback), decoders reject
// anything above it before sizing buffers.
const maxWireUpdates = 1024

// errMalformed reports a truncated or inconsistent gossip payload; the
// specific causes wrap it. They are built once so the detector's per-datagram
// decode formats nothing.
var (
	errMalformed = errors.New("gossip: malformed payload")
	errVersion   = fmt.Errorf("%w: wire version is not %d", errMalformed, wireVersion)
	errMsgKind   = fmt.Errorf("%w: unknown message kind", errMalformed)
	errUpdKind   = fmt.Errorf("%w: unknown update kind", errMalformed)
	errTrailing  = fmt.Errorf("%w: trailing bytes", errMalformed)
)

// MsgKind enumerates the SWIM probe messages.
type MsgKind uint8

// Probe message kinds. The six sub-rounds of one protocol period carry
// exactly one kind each: direct ping, direct ack, indirect-probe request,
// indirect ping, indirect ack, forwarded ack.
const (
	MsgPing MsgKind = iota + 1
	MsgAck
	MsgPingReq
	MsgIndPing
	MsgIndAck
	MsgFwdAck
	msgKindEnd
)

// UpdateKind enumerates disseminated membership-state transitions.
type UpdateKind uint8

// Membership update kinds, in increasing override strength at equal
// incarnation: alive < suspect < confirm.
const (
	UpdAlive UpdateKind = iota + 1
	UpdSuspect
	UpdConfirm
	updKindEnd
)

// Update is one piggybacked membership statement: "node is in this state
// at this incarnation".
type Update struct {
	Kind UpdateKind
	Node int32
	Inc  uint32
}

// Message is one decoded gossip datagram.
type Message struct {
	Kind MsgKind
	From int32
	// About names the message's subject: the probe target for MsgPingReq
	// and MsgIndPing, the probe origin for MsgIndAck, and the probed
	// target for MsgFwdAck. Zero for plain pings and acks.
	About   int32
	Updates []Update
}

// AppendMessage encodes m onto buf and returns the extended slice.
func AppendMessage(buf []byte, m *Message) []byte {
	buf = append(buf, wireVersion, byte(m.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.About))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Updates)))
	for i := range m.Updates {
		u := &m.Updates[i]
		buf = append(buf, byte(u.Kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u.Node))
		buf = binary.LittleEndian.AppendUint32(buf, u.Inc)
	}
	return buf
}

// reader consumes a payload with sticky error handling.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errMalformed
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.buf) < 1 {
		r.fail()
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.buf) < 2 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.buf) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *reader) remaining() int { return len(r.buf) }

// DecodeMessage parses one gossip datagram. The returned message's
// Updates slice is freshly allocated; data is not retained.
func DecodeMessage(data []byte) (Message, error) {
	var m Message
	if err := m.decode(data); err != nil {
		return Message{}, err
	}
	return m, nil
}

// decode parses one gossip datagram into m, reusing m.Updates' capacity;
// data is not retained. On error m is unspecified.
func (m *Message) decode(data []byte) error {
	r := &reader{buf: data}
	if v := r.u8(); r.err == nil && v != wireVersion {
		return errVersion
	}
	m.Kind = MsgKind(r.u8())
	if r.err == nil && (m.Kind == 0 || m.Kind >= msgKindEnd) {
		return errMsgKind
	}
	m.From = int32(r.u32())
	m.About = int32(r.u32())
	m.Updates = m.Updates[:0]
	n := int(r.u16())
	if n > maxWireUpdates || n*updateWireBytes > r.remaining() {
		return errMalformed // each update is exactly 9 bytes
	}
	for i := 0; i < n; i++ {
		u := Update{Kind: UpdateKind(r.u8()), Node: int32(r.u32()), Inc: r.u32()}
		if u.Kind == 0 || u.Kind >= updKindEnd {
			return errUpdKind
		}
		m.Updates = append(m.Updates, u)
	}
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return errTrailing
	}
	return nil
}
