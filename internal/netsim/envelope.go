// Reliable-delivery envelope. When the omission-fault layer is active,
// every payload crossing a lossy link is prefixed with this fixed-size
// header so the receiver can deduplicate retransmissions (seq), restore
// per-link FIFO order after reordering, and fence traffic from or to a
// stale incarnation of a node slot (senderEpoch / recvEpoch): a
// partitioned-but-alive sender whose role was rebuilt by Rebirth keeps
// stamping its old epoch, and every such frame is counted and dropped
// instead of corrupting the new incarnation's state.

package netsim

import (
	"encoding/binary"
	"fmt"
)

// envelopeLen is the wire size of the reliable-delivery prefix:
// seq u32 | senderEpoch u32 | recvEpoch u32, little-endian.
const envelopeLen = 12

// envelope is the reliable-delivery header of one frame.
type envelope struct {
	// seq is the frame's per-(sender, receiver, epoch-pair) sequence
	// number, starting at 0 for each fresh incarnation pairing.
	seq uint32
	// senderEpoch is the membership incarnation of the sending slot at
	// send time; receivers fence frames from superseded incarnations.
	senderEpoch uint32
	// recvEpoch is the incarnation of the receiving slot the sender
	// believes it is talking to; the receiver fences frames addressed to
	// a previous life of its slot.
	recvEpoch uint32
}

// appendEnvelope appends e's wire form to buf and returns the result.
func appendEnvelope(buf []byte, e envelope) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, e.seq)
	buf = binary.LittleEndian.AppendUint32(buf, e.senderEpoch)
	buf = binary.LittleEndian.AppendUint32(buf, e.recvEpoch)
	return buf
}

// parseEnvelope splits a frame into its envelope and payload. The payload
// aliases frame's backing array. Truncated frames are rejected rather
// than read out of bounds.
func parseEnvelope(frame []byte) (envelope, []byte, error) {
	if len(frame) < envelopeLen {
		return envelope{}, nil, fmt.Errorf("netsim: frame %d bytes shorter than envelope (%d)", len(frame), envelopeLen)
	}
	e := envelope{
		seq:         binary.LittleEndian.Uint32(frame[0:4]),
		senderEpoch: binary.LittleEndian.Uint32(frame[4:8]),
		recvEpoch:   binary.LittleEndian.Uint32(frame[8:12]),
	}
	return e, frame[envelopeLen:], nil
}
