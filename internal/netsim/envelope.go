// Reliable-delivery envelope. When the omission-fault layer is active,
// every reliable frame crossing a lossy link carries this metadata in its
// Message so the receiver can deduplicate retransmissions (seq), restore
// per-link FIFO order after reordering, and fence traffic from or to a
// stale incarnation of a node slot (senderEpoch / recvEpoch): a
// partitioned-but-alive sender whose role was rebuilt by Rebirth keeps
// stamping its old epoch, and every such frame is counted and dropped
// instead of corrupting the new incarnation's state. The envelope never
// becomes bytes; the cost model charges it as envelopeLen wire bytes.

package netsim

// envelopeLen is the wire size the envelope is charged at: three u32
// fields, as a real transport would prefix them to the frame.
const envelopeLen = 12

// envelope is the reliable-delivery metadata of one frame.
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
