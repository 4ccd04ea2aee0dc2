package core

import (
	"math"
	"testing"

	"imitator/internal/graph"
)

func TestServeWireQueryRoundTrip(t *testing.T) {
	cases := []Query{
		{Kind: QueryValue, Vertex: 0},
		{Kind: QueryValue, Vertex: 1<<31 - 1},
		{Kind: QueryTopK, Vertex: 0, K: 10},
		{Kind: QueryNeighbors, Vertex: 42, K: 7},
	}
	for _, q := range cases {
		buf := EncodeQuery(nil, q)
		got, err := DecodeQuery(buf)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if got != q {
			t.Fatalf("round trip: got %+v, want %+v", got, q)
		}
	}
}

func TestServeWireAnswerRoundTrip(t *testing.T) {
	cases := []Answer{
		{Kind: QueryValue, Vertex: 3, Value: 0.25, Epoch: 4, Frontier: 5, Node: 2},
		{Kind: QueryValue, Vertex: 3, Value: math.Inf(1), Epoch: 0, Frontier: 0, Node: 0, FromReplica: true},
		{
			Kind: QueryTopK, Epoch: 9, Frontier: 9, Node: 1,
			TopK: []RankEntry{{Vertex: 7, Value: 3.5}, {Vertex: 1, Value: 3.5}, {Vertex: 9, Value: 0.1}},
		},
		{
			Kind: QueryNeighbors, Vertex: 12, Epoch: 2, Frontier: 3, Node: 4, FromReplica: true,
			Neighbors: []graph.VertexID{1, 5, 9, 200},
		},
	}
	for _, a := range cases {
		buf := EncodeAnswer(nil, a)
		got, err := DecodeAnswer(buf)
		if err != nil {
			t.Fatalf("%+v: %v", a, err)
		}
		if got.Kind != a.Kind || got.Vertex != a.Vertex || got.Value != a.Value ||
			got.Epoch != a.Epoch || got.Frontier != a.Frontier ||
			got.Node != a.Node || got.FromReplica != a.FromReplica {
			t.Fatalf("round trip scalar fields: got %+v, want %+v", got, a)
		}
		if len(got.TopK) != len(a.TopK) || len(got.Neighbors) != len(a.Neighbors) {
			t.Fatalf("round trip lengths: got %d/%d, want %d/%d",
				len(got.TopK), len(got.Neighbors), len(a.TopK), len(a.Neighbors))
		}
		for i := range a.TopK {
			if got.TopK[i] != a.TopK[i] {
				t.Fatalf("rank entry %d: got %+v, want %+v", i, got.TopK[i], a.TopK[i])
			}
		}
		for i := range a.Neighbors {
			if got.Neighbors[i] != a.Neighbors[i] {
				t.Fatalf("neighbor %d: got %d, want %d", i, got.Neighbors[i], a.Neighbors[i])
			}
		}
	}
}

func TestServeWireRejectsTrailingAndTruncated(t *testing.T) {
	q := EncodeQuery(nil, Query{Kind: QueryTopK, K: 5})
	if _, err := DecodeQuery(append(q, 0)); err == nil {
		t.Fatal("trailing byte accepted by DecodeQuery")
	}
	if _, err := DecodeQuery(q[:len(q)-1]); err == nil {
		t.Fatal("truncated query accepted")
	}
	a := EncodeAnswer(nil, Answer{Kind: QueryValue, Value: 1, TopK: []RankEntry{{Vertex: 1, Value: 2}}})
	if _, err := DecodeAnswer(append(a, 0)); err == nil {
		t.Fatal("trailing byte accepted by DecodeAnswer")
	}
	if _, err := DecodeAnswer(a[:len(a)-1]); err == nil {
		t.Fatal("truncated answer accepted")
	}
}

// FuzzQueryDecode hardens the query decoder against arbitrary bytes: never
// panic, and anything that decodes must re-encode to the same bytes.
func FuzzQueryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeQuery(nil, Query{Kind: QueryValue, Vertex: 9}))
	f.Add(EncodeQuery(nil, Query{Kind: QueryNeighbors, Vertex: 1<<31 - 1, K: 3}))
	f.Add([]byte{255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuery(data)
		if err != nil {
			return
		}
		if got := EncodeQuery(nil, q); string(got) != string(data) {
			t.Fatalf("re-encode mismatch: %x vs %x", got, data)
		}
	})
}

// TestDecodeAnswerRankCountAllocFree sends a whole answer header whose rank
// count (1<<20) is far past the payload. DecodeAnswer must refuse it before
// sizing anything: an error, and no allocation.
func TestDecodeAnswerRankCountAllocFree(t *testing.T) {
	hdr := EncodeAnswer(nil, Answer{Kind: QueryTopK})
	buf := append(hdr[:len(hdr)-8:len(hdr)-8], 0, 0, 16, 0, 1, 2, 3, 4)
	if _, err := DecodeAnswer(buf); err == nil {
		t.Fatal("DecodeAnswer accepted 1<<20 rank entries in an 8-byte payload")
	}
	if allocs := testing.AllocsPerRun(10, func() { DecodeAnswer(buf) }); allocs != 0 {
		t.Errorf("DecodeAnswer allocated %.0f times before refusing the rank count, want 0", allocs)
	}
}

// FuzzAnswerDecode hardens the answer decoder: never panic, never allocate
// beyond the payload's sanity bound, and a successful decode survives an
// encode/decode round trip with lengths intact.
func FuzzAnswerDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeAnswer(nil, Answer{Kind: QueryValue, Value: 0.5, Epoch: 3, Frontier: 4, Node: 1}))
	f.Add(EncodeAnswer(nil, Answer{Kind: QueryTopK, TopK: []RankEntry{{Vertex: 2, Value: 1}}}))
	// A whole answer header followed by a rank count far past the payload.
	hdr := EncodeAnswer(nil, Answer{Kind: QueryTopK})
	f.Add(append(hdr[:len(hdr)-8:len(hdr)-8], 255, 255, 255, 255))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAnswer(data)
		if err != nil {
			return
		}
		rt, err := DecodeAnswer(EncodeAnswer(nil, a))
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if len(rt.TopK) != len(a.TopK) || len(rt.Neighbors) != len(a.Neighbors) {
			t.Fatalf("round trip lengths diverged: %d/%d vs %d/%d",
				len(rt.TopK), len(rt.Neighbors), len(a.TopK), len(a.Neighbors))
		}
	})
}
