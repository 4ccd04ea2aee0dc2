package imitator

import (
	"imitator/internal/core"
	"imitator/internal/experiments"
	"imitator/internal/metrics"
)

// ---- Serve options and query API --------------------------------------
//
// Serve mode turns a run into a long-lived queryable service: the engine
// executes to convergence with the graph resident while concurrent readers
// query the last published epoch-consistent snapshot — from masters when
// they are healthy, from FT replicas while a node is suspected, failed or
// being rebuilt. Queries never block on recovery and never observe a torn
// superstep; each answer carries the epoch it was read from and the
// cluster frontier, so staleness is always explicit.

// ServeOption refines WithServe.
type ServeOption func(*core.ServeConfig)

// WithServe enables the serving layer. Serving is host-side only: it never
// charges simulated time or traffic, so a served run's SimSeconds and
// message bytes are bit-identical to the same run without it.
func WithServe(opts ...ServeOption) Option {
	return func(c *Config) {
		c.Serve.Enabled = true
		for _, o := range opts {
			o(&c.Serve)
		}
	}
}

// ServeKeepHistory retains every published snapshot for the run's lifetime
// (ground-truth validation and time-travel reads; memory grows with the
// iteration count).
func ServeKeepHistory() ServeOption {
	return func(s *core.ServeConfig) { s.KeepHistory = true }
}

// ServeConfig is the serving layer's engine configuration (Config.Serve).
type ServeConfig = core.ServeConfig

// QueryKind selects what a Query reads.
type QueryKind = core.QueryKind

const (
	// QueryValue reads one vertex's value at the answer's epoch.
	QueryValue = core.QueryValue
	// QueryTopK reads the K highest-valued vertices at the answer's epoch.
	QueryTopK = core.QueryTopK
	// QueryNeighbors reads a vertex's out-neighborhood (topology, K-capped).
	QueryNeighbors = core.QueryNeighbors
)

// Query is one typed read request; see the core type for field semantics.
type Query = core.Query

// Answer is one typed read response, stamped with the epoch it observed,
// the cluster frontier and the serving node.
type Answer = core.Answer

// RankEntry is one entry of a top-K answer.
type RankEntry = core.RankEntry

// ServeStats is the serving layer's accounting (Result.Serve).
type ServeStats = metrics.Serve

// Serving-layer sentinels; match with errors.Is.
var (
	// ErrServeDisabled reports a query against a run without WithServe.
	ErrServeDisabled = core.ErrServeDisabled
	// ErrBadQuery reports a malformed query (unknown kind, missing K).
	ErrBadQuery = core.ErrBadQuery
	// ErrUnknownVertex reports a vertex id outside the graph.
	ErrUnknownVertex = core.ErrUnknownVertex
	// ErrStaleRead is never returned: every commit publishes, so an
	// answer lags the frontier by at most one epoch. It stays so callers
	// that match on it keep compiling.
	ErrStaleRead = core.ErrStaleRead
	// ErrVertexUnavailable reports a vertex whose master is down and whose
	// replicas cannot serve (e.g. a selfish vertex under §4.4).
	ErrVertexUnavailable = core.ErrVertexUnavailable
)

// EncodeQuery appends q's wire form to buf (the query protocol a remote
// client would speak).
func EncodeQuery(buf []byte, q Query) []byte { return core.EncodeQuery(buf, q) }

// DecodeQuery parses one wire-encoded query; trailing bytes are an error.
func DecodeQuery(buf []byte) (Query, error) { return core.DecodeQuery(buf) }

// EncodeAnswer appends a's wire form to buf.
func EncodeAnswer(buf []byte, a Answer) []byte { return core.EncodeAnswer(buf, a) }

// DecodeAnswer parses one wire-encoded answer; trailing bytes are an error.
func DecodeAnswer(buf []byte) (Answer, error) { return core.DecodeAnswer(buf) }

// Server is a workload running to convergence in the background while
// serving live queries. Obtain one with Serve or ServeOn.
type Server struct {
	h *experiments.Handle
}

// Serve launches w on its catalog dataset under cfg with the serving layer
// enabled and returns immediately; query while it runs, Wait for the final
// summary.
func Serve(w Workload, cfg Config) (*Server, error) {
	h, err := experiments.StartWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	return &Server{h: h}, nil
}

// ServeOn is Serve on an explicit graph.
func ServeOn(w Workload, g *Graph, cfg Config) (*Server, error) {
	h, err := experiments.StartWorkloadOn(w, g, cfg)
	if err != nil {
		return nil, err
	}
	return &Server{h: h}, nil
}

// Query answers one live query from the last published epoch-consistent
// snapshot. Safe to call concurrently, during and after the run.
func (s *Server) Query(q Query) (Answer, error) { return s.h.Query(q) }

// Done is closed when the engine finishes (converged or failed).
func (s *Server) Done() <-chan struct{} { return s.h.Done() }

// Wait blocks until the run completes and returns its summary.
func (s *Server) Wait() (RunSummary, error) { return s.h.Wait() }
