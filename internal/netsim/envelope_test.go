package netsim

import (
	"bytes"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte("hello, wire")
	e := envelope{seq: 0xdeadbeef, senderEpoch: 3, recvEpoch: 0xffffffff}
	frame := appendEnvelope(nil, e)
	if len(frame) != envelopeLen {
		t.Fatalf("envelope length %d, want %d", len(frame), envelopeLen)
	}
	frame = append(frame, payload...)

	got, rest, err := parseEnvelope(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round-trip mismatch: %+v != %+v", got, e)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload mangled: %q", rest)
	}
}

func TestEnvelopeAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	out := appendEnvelope(buf, envelope{seq: 1, senderEpoch: 1, recvEpoch: 1})
	if &out[0] != &buf[:1][0] {
		t.Fatal("appendEnvelope reallocated a buffer with spare capacity")
	}
}

func TestEnvelopeTruncatedFrames(t *testing.T) {
	full := appendEnvelope(nil, envelope{seq: 9, senderEpoch: 2, recvEpoch: 2})
	for n := 0; n < envelopeLen; n++ {
		if _, _, err := parseEnvelope(full[:n]); err == nil {
			t.Fatalf("parseEnvelope accepted %d-byte frame", n)
		}
	}
	// Exactly envelopeLen bytes is a valid empty-payload frame.
	e, rest, err := parseEnvelope(full)
	if err != nil || len(rest) != 0 {
		t.Fatalf("empty-payload frame rejected: %v (rest %d)", err, len(rest))
	}
	if e.seq != 9 {
		t.Fatalf("seq = %d, want 9", e.seq)
	}
	if _, _, err := parseEnvelope(nil); err == nil {
		t.Fatal("parseEnvelope accepted nil frame")
	}
}
