package ftlog

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// encodeFile assembles one well-formed log file through the append/patch
// helpers, the way the engine does.
func encodeFile(superstep uint32, kind byte, recs []Record, msgs [][]byte) []byte {
	buf := AppendFileHeader(nil, superstep, kind)
	buf, recAt := AppendCountPlaceholder(buf)
	for _, r := range recs {
		var vAt int
		buf, vAt = AppendRecordPrefix(buf, r.Pos, r.Flags, r.Stamp)
		buf = append(buf, r.Val...)
		PatchValLen(buf, vAt)
	}
	PatchCount(buf, recAt, len(recs))
	buf, msgAt := AppendCountPlaceholder(buf)
	if kind != KindFull {
		for _, m := range msgs {
			buf = AppendMessage(buf, m)
		}
		PatchCount(buf, msgAt, len(msgs))
	}
	return buf
}

func TestRoundTrip(t *testing.T) {
	recs := []Record{
		{Pos: 0, Flags: FlagActive, Stamp: -1, Val: []byte{1, 2, 3}},
		{Pos: 7, Flags: FlagActive | FlagLastActivate, Stamp: 4, Val: nil},
		{Pos: 1 << 20, Flags: 0, Stamp: 9, Val: bytes.Repeat([]byte{0xAB}, 100)},
	}
	msgs := [][]byte{{9, 9}, nil, bytes.Repeat([]byte{7}, 33)}
	data := encodeFile(12, KindDelta, recs, msgs)

	d, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Superstep() != 12 || d.Kind() != KindDelta {
		t.Fatalf("header = %d/%d", d.Superstep(), d.Kind())
	}
	for i, want := range recs {
		got, ok, err := d.NextRecord()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if got.Pos != want.Pos || got.Flags != want.Flags || got.Stamp != want.Stamp || !bytes.Equal(got.Val, want.Val) {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
	if _, ok, _ := d.NextRecord(); ok {
		t.Fatal("extra record")
	}
	for i, want := range msgs {
		got, ok, err := d.NextMessage()
		if err != nil || !ok {
			t.Fatalf("message %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d: %v != %v", i, got, want)
		}
	}
	if _, ok, _ := d.NextMessage(); ok {
		t.Fatal("extra message")
	}
}

func TestFullFileHasNoMessages(t *testing.T) {
	data := encodeFile(3, KindFull, []Record{{Pos: 1, Val: []byte{5}}}, nil)
	d, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.NextRecord(); !ok || err != nil {
		t.Fatalf("record: ok=%v err=%v", ok, err)
	}
	if _, ok, err := d.NextMessage(); ok || err != nil {
		t.Fatalf("full file yielded a message: ok=%v err=%v", ok, err)
	}
}

func TestMessageBeforeRecordsDrained(t *testing.T) {
	data := encodeFile(0, KindDelta, []Record{{Pos: 1}}, nil)
	d, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.NextMessage(); err == nil {
		t.Fatal("NextMessage with unread records did not error")
	}
}

// TestCorruptInputs: every truncation and inflated count errors instead of
// panicking or over-reading.
func TestCorruptInputs(t *testing.T) {
	good := encodeFile(5, KindDelta, []Record{{Pos: 2, Val: []byte{1, 2}}}, [][]byte{{3}})
	cases := map[string][]byte{
		"empty":        nil,
		"short-header": good[:8],
		"bad-kind":     append(append([]byte{}, 0, 0, 0, 0, 99), good[5:]...),
	}
	// Record count inflated past the buffer.
	inflated := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(inflated[5:], 1<<30)
	cases["record-count-overflow"] = inflated
	// Value length inflated past the buffer.
	vlen := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(vlen[headerLen+9:], 1<<30)
	cases["val-len-overflow"] = vlen

	for name, data := range cases {
		d, err := NewDecoder(data)
		if err != nil {
			continue // rejected at the header: fine
		}
		if _, _, err := d.NextRecord(); err == nil {
			t.Errorf("%s: NextRecord accepted corrupt input", name)
		}
	}

	// Message length inflated past the buffer.
	mfile := encodeFile(5, KindDelta, nil, [][]byte{{1, 2, 3}})
	binary.LittleEndian.PutUint32(mfile[headerLen+4:], 1<<30)
	d, err := NewDecoder(mfile)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.NextMessage(); err == nil {
		t.Error("NextMessage accepted inflated length")
	}
}

// TestU32LenBound: the length prefixes stop at 4 GiB. A longer record value
// or message would wrap its u32 field and misframe every later entry, so
// u32Len panics there instead; no buffer that size is needed to check it.
func TestU32LenBound(t *testing.T) {
	if got := u32Len(math.MaxUint32); got != math.MaxUint32 {
		t.Fatalf("u32Len(MaxUint32) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("u32Len(1<<32) returned; want a panic")
		}
	}()
	u32Len(1 << 32)
}

// FuzzLogDecode drives the decoder with arbitrary bytes: it must never
// panic, and every slice it hands back must lie inside the input.
func FuzzLogDecode(f *testing.F) {
	f.Add(encodeFile(1, KindDelta, []Record{{Pos: 3, Flags: FlagActive, Stamp: 2, Val: []byte{1}}}, [][]byte{{2, 2}}))
	f.Add(encodeFile(9, KindFull, []Record{{Pos: 0, Val: bytes.Repeat([]byte{5}, 40)}}, nil))
	f.Add([]byte{0, 0, 0, 0, 1, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(data)
		if err != nil {
			return
		}
		for {
			rec, ok, err := d.NextRecord()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			if len(rec.Val) > len(data) {
				t.Fatalf("record value escapes input: %d > %d", len(rec.Val), len(data))
			}
		}
		for {
			msg, ok, err := d.NextMessage()
			if err != nil || !ok {
				return
			}
			if len(msg) > len(data) {
				t.Fatalf("message escapes input: %d > %d", len(msg), len(data))
			}
		}
	})
}
