package serveload

import (
	"errors"
	"testing"

	"imitator/internal/core"
)

// TestGenDeterministic: two generators with the same config emit identical
// query streams; a different seed diverges.
func TestGenDeterministic(t *testing.T) {
	cfg := Config{Queries: 500, Seed: 42, NumVertices: 1000, TopK: 5}
	a, err := NewGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	other, _ := NewGen(Config{Queries: 500, Seed: 43, NumVertices: 1000, TopK: 5})
	for i := 0; i < 500; i++ {
		qa, qb := a.Next(), b.Next()
		if qa != qb {
			t.Fatalf("query %d diverged: %+v vs %+v", i, qa, qb)
		}
		if qa != other.Next() {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestRunAggregates drives the runner against a scripted source and checks
// the counters, percentiles and codec round trip.
func TestRunAggregates(t *testing.T) {
	n := 0
	src := func(q core.Query) (core.Answer, error) {
		n++
		if n%7 == 0 {
			return core.Answer{}, core.ErrVertexUnavailable
		}
		ans := core.Answer{Kind: q.Kind, Vertex: q.Vertex, Value: 1.5, Epoch: n % 5, Frontier: n%5 + 1, Node: 1}
		if q.Kind == core.QueryTopK {
			ans.TopK = []core.RankEntry{{Vertex: 1, Value: 2}, {Vertex: 0, Value: 1}}
		}
		if n%3 == 0 {
			ans.FromReplica = true
		}
		return ans, nil
	}
	st, err := Run(Config{Queries: 200, Seed: 7, NumVertices: 100}, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Issued != 200 || st.Answered == 0 || st.Unavailable == 0 {
		t.Fatalf("counters wrong: %+v", st)
	}
	if st.Answered+st.Unavailable != st.Issued {
		t.Fatalf("counters do not add up: %+v", st)
	}
	if st.FromReplica == 0 || st.MaxStaleness != 1 || st.MaxEpoch != 4 {
		t.Fatalf("answer-derived stats wrong: %+v", st)
	}
	if st.P50 < 0 || st.P99 < st.P50 || st.Max < st.P99 || st.QPS <= 0 {
		t.Fatalf("latency stats inconsistent: %+v", st)
	}
}

// TestRunConfigErrors: invalid configs and source errors surface.
func TestRunConfigErrors(t *testing.T) {
	ok := func(core.Query) (core.Answer, error) { return core.Answer{}, nil }
	if _, err := Run(Config{Queries: 0, NumVertices: 10}, ok); err == nil {
		t.Fatal("zero queries accepted")
	}
	if _, err := Run(Config{Queries: 10, NumVertices: 0}, ok); err == nil {
		t.Fatal("zero vertices accepted")
	}
	if _, err := Run(Config{Queries: 10, NumVertices: 10, ValueFrac: 0.9, TopKFrac: 0.2}, ok); err == nil {
		t.Fatal("overfull mix accepted")
	}
	boom := errors.New("boom")
	fail := func(core.Query) (core.Answer, error) { return core.Answer{}, boom }
	if _, err := Run(Config{Queries: 5, NumVertices: 10}, fail); !errors.Is(err, boom) {
		t.Fatalf("source error lost: %v", err)
	}
}
