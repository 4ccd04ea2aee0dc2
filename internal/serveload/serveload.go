// Package serveload is the deterministic load generator for serve mode: it
// drives a seeded stream of typed queries (vertex values, top-K ranks,
// neighborhoods) against a live cluster and reports latency percentiles
// and throughput. The query *sequence* is a pure function of the seed, so
// two runs issue byte-identical query streams; the measured latencies are
// host wall-clock (this package is load-bench tooling, not part of the
// simulated engine, and charges no simulated time).
//
// Every query and answer is round-tripped through the serve wire codec,
// so a load run also exercises the full protocol path a remote client
// would use.
package serveload

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"imitator/internal/core"
	"imitator/internal/graph"
	"imitator/internal/rng"
)

// Source answers queries — typically Cluster.Query or a Server handle.
type Source func(core.Query) (core.Answer, error)

// Config shapes one load run.
type Config struct {
	// Queries is the number of queries to issue (required, > 0).
	Queries int
	// Seed drives the deterministic query stream.
	Seed uint64
	// NumVertices bounds the vertex ids drawn (required, > 0). Queries
	// skew toward low ids (Zipf 0.8), like real ranked-read traffic.
	NumVertices int
	// TopK is the K used for top-K queries (default 10).
	TopK int
	// ValueFrac / TopKFrac split the stream: ValueFrac of the queries are
	// point reads, TopKFrac are top-K, the remainder neighborhoods.
	// Zero-valued defaults are 0.8 and 0.1.
	ValueFrac, TopKFrac float64
	// Done, when non-nil, keeps the run issuing paced queries past the
	// Queries budget until the channel closes — so a load run tracks a
	// live job end to end (chaos windows included) instead of draining its
	// budget in the first milliseconds.
	Done <-chan struct{}
}

func (c Config) withDefaults() (Config, error) {
	if c.Queries <= 0 {
		return c, fmt.Errorf("serveload: Queries must be positive, got %d", c.Queries)
	}
	if c.NumVertices <= 0 {
		return c, fmt.Errorf("serveload: NumVertices must be positive, got %d", c.NumVertices)
	}
	if c.TopK == 0 {
		c.TopK = 10
	}
	if c.ValueFrac == 0 && c.TopKFrac == 0 {
		c.ValueFrac, c.TopKFrac = 0.8, 0.1
	}
	if c.ValueFrac < 0 || c.TopKFrac < 0 || c.ValueFrac+c.TopKFrac > 1 {
		return c, fmt.Errorf("serveload: bad mix value=%v topk=%v", c.ValueFrac, c.TopKFrac)
	}
	return c, nil
}

// Stats is one load run's accounting. Latencies are in milliseconds.
type Stats struct {
	Issued      int
	Answered    int
	Unavailable int // ErrVertexUnavailable (honest refusals)
	FromReplica int

	P50, P95, P99, Max float64
	QPS                float64 // answered queries per wall-clock second

	// MaxStaleness is the largest Answer.Staleness() observed.
	MaxStaleness int
	// MaxEpoch is the newest epoch observed (the run's progress as seen
	// through the query stream).
	MaxEpoch int
}

// Gen is a deterministic query generator; two Gens with equal configs
// produce identical streams.
type Gen struct {
	cfg  Config
	src  *rng.Source
	zipf *rng.Zipf
}

// NewGen builds a generator. Config errors surface here.
func NewGen(cfg Config) (*Gen, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	return &Gen{cfg: cfg, src: src, zipf: rng.NewZipf(src, cfg.NumVertices, 0.8)}, nil
}

// Next returns the i-th query of the stream.
func (g *Gen) Next() core.Query {
	var q core.Query
	switch p := g.src.Float64(); {
	case p < g.cfg.ValueFrac:
		q.Kind = core.QueryValue
		q.Vertex = graph.VertexID(g.zipf.Next())
	case p < g.cfg.ValueFrac+g.cfg.TopKFrac:
		q.Kind = core.QueryTopK
		q.K = g.cfg.TopK
	default:
		q.Kind = core.QueryNeighbors
		q.Vertex = graph.VertexID(g.zipf.Next())
		q.K = 4 * g.cfg.TopK
	}
	return q
}

// Run issues cfg.Queries queries against src and aggregates the stats.
// Each query and answer is round-tripped through the wire codec before and
// after the call, exactly as a remote client would see them.
func Run(cfg Config, src Source) (Stats, error) {
	g, err := NewGen(cfg)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	lats := make([]float64, 0, cfg.Queries)
	var buf []byte
	start := time.Now()
	for i := 0; ; i++ {
		if i >= cfg.Queries {
			if cfg.Done == nil {
				break
			}
			select {
			case <-cfg.Done:
				cfg.Done = nil // drain: run the budget's remainder, if any
				if i >= cfg.Queries {
					goto done
				}
			default:
				// Past the budget with the job still running: pace the
				// overflow queries so tracking a long run stays cheap.
				time.Sleep(200 * time.Microsecond)
			}
		}
		q := g.Next()
		buf = core.EncodeQuery(buf[:0], q)
		wq, err := core.DecodeQuery(buf)
		if err != nil {
			return st, fmt.Errorf("serveload: query codec round trip: %w", err)
		}
		st.Issued++
		t0 := time.Now()
		ans, err := src(wq)
		lat := time.Since(t0)
		if errors.Is(err, core.ErrVertexUnavailable) {
			st.Unavailable++
			continue
		}
		if err != nil {
			return st, err
		}
		buf = core.EncodeAnswer(buf[:0], ans)
		if ans, err = core.DecodeAnswer(buf); err != nil {
			return st, fmt.Errorf("serveload: answer codec round trip: %w", err)
		}
		st.Answered++
		lats = append(lats, float64(lat.Nanoseconds())/1e6)
		if ans.FromReplica {
			st.FromReplica++
		}
		if s := ans.Staleness(); s > st.MaxStaleness {
			st.MaxStaleness = s
		}
		if ans.Epoch > st.MaxEpoch {
			st.MaxEpoch = ans.Epoch
		}
	}
done:
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		st.QPS = float64(st.Answered) / elapsed
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		st.P50 = percentile(lats, 0.50)
		st.P95 = percentile(lats, 0.95)
		st.P99 = percentile(lats, 0.99)
		st.Max = lats[len(lats)-1]
	}
	return st, nil
}

// percentile reads the p-quantile from sorted latencies (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
