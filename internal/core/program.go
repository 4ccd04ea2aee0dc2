// Package core implements the Imitator runtime: a BSP graph-processing
// engine with edge-cut (Cyclops) and vertex-cut (PowerLyra) modes, and the
// paper's replication-based fault tolerance — fault-tolerant replicas,
// full-state mirrors, the selfish-vertex optimization, and three recovery
// strategies (checkpoint baseline, Rebirth, Migration).
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"imitator/internal/graph"
)

// VertexInfo carries a vertex's static global degrees to vertex programs.
type VertexInfo struct {
	InDeg, OutDeg int32
}

// Program is a vertex program over value type V and gather accumulator A.
// Both engines schedule it with gather-apply-scatter semantics; under
// edge-cut the gather runs entirely on the master's node, under vertex-cut
// partial gathers run on every node holding in-edges.
type Program[V, A any] interface {
	// Name identifies the algorithm in reports.
	Name() string
	// AlwaysActive makes every vertex compute every superstep (PageRank,
	// ALS); otherwise activation flows along scatter edges (SSSP, CD).
	AlwaysActive() bool
	// CanRecomputeSelfish enables the §4.4 optimization: selfish vertices
	// (no out-edges) are never synchronized during normal execution, and
	// their dynamic state is recomputed from in-neighbors at recovery.
	// Only sound when Apply ignores the previous value (e.g., PageRank).
	CanRecomputeSelfish() bool
	// Init returns a vertex's initial value and whether it starts active.
	Init(v graph.VertexID, info VertexInfo) (V, bool)
	// Gather folds vertex dst's local in-edges, edge 0 first, when there are
	// any. It must equal Merge applied left to right over one-edge Gathers,
	// bit for bit: vertex-cut Merges the per-node folds.
	Gather(dst graph.VertexID, in InEdges[V]) A
	// Merge combines two gather accumulators (must be commutative and
	// associative up to float rounding; engines fix the fold order).
	Merge(a, b A) A
	// Apply produces the new value from the merged contributions and
	// reports whether to activate out-neighbors for the next superstep.
	Apply(v graph.VertexID, info VertexInfo, old V, acc A, hasAcc bool, iter int) (V, bool)
	// ValueCodec encodes V for sync messages, checkpoints and recovery.
	ValueCodec() Codec[V]
	// AccCodec encodes A for vertex-cut partial-gather messages.
	AccCodec() Codec[A]
}

// InEdges is one vertex's local in-edges, read in place in the node's table.
// Gather takes it by value; its accessors have pointer receivers, so a fold
// copies nothing per edge.
type InEdges[V any] struct {
	hot []hot[V]
	nbr []int32
	wt  weights
}

// NewInEdges returns the in-edge list whose edge k has source src[k], source
// value val[k], source degrees info[k] and weight wt[k] (wt nil: every weight
// is 1), for testing a Program's Gather outside an engine.
func NewInEdges[V any](src []graph.VertexID, val []V, info []VertexInfo, wt []float64) InEdges[V] {
	in := InEdges[V]{hot: make([]hot[V], len(src)), nbr: make([]int32, len(src)), wt: wt}
	for k, id := range src {
		in.hot[k] = hot[V]{value: val[k], id: id, inDeg: info[k].InDeg, outDeg: info[k].OutDeg}
		in.nbr[k] = int32(k)
	}
	return in
}

// Len, Value, Info, Src and Weight read the list: its edge count, and edge
// k's source value, source degrees, source id and weight.
func (in *InEdges[V]) Len() int                 { return len(in.nbr) }
func (in *InEdges[V]) Value(k int) V            { return in.hot[in.nbr[k]].value }
func (in *InEdges[V]) Info(k int) VertexInfo    { return in.hot[in.nbr[k]].info() }
func (in *InEdges[V]) Src(k int) graph.VertexID { return in.hot[in.nbr[k]].id }
func (in *InEdges[V]) Weight(k int) float64     { return in.wt.at(k) }

// Codec serializes values of type T for the wire and for snapshots.
type Codec[T any] interface {
	// Append encodes v onto buf and returns the extended slice.
	Append(buf []byte, v T) []byte
	// Read decodes a value from buf, returning it and the remaining bytes.
	Read(buf []byte) (T, []byte, error)
	// Size returns the encoded size of v in bytes.
	Size(v T) int
}

// fixedSize returns the encoded size shared by every value of c, for the
// shipped codecs whose size does not depend on the value.
func fixedSize[T any](c Codec[T]) (int, bool) {
	switch any(c).(type) {
	case Float64Codec, Int32Codec, VecCodec:
		var zero T
		return c.Size(zero), true
	}
	return 0, false
}

var errShortBuffer = fmt.Errorf("core: short buffer decoding value")

// Float64Codec encodes a float64 (PageRank rank, SSSP distance).
type Float64Codec struct{}

// Append implements Codec.
func (Float64Codec) Append(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// Read implements Codec.
func (Float64Codec) Read(buf []byte) (float64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, errShortBuffer
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), buf[8:], nil
}

// Size implements Codec.
func (Float64Codec) Size(float64) int { return 8 }

// Int32Codec encodes an int32 (community labels).
type Int32Codec struct{}

// Append implements Codec.
func (Int32Codec) Append(buf []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(v))
}

// Read implements Codec.
func (Int32Codec) Read(buf []byte) (int32, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, errShortBuffer
	}
	return int32(binary.LittleEndian.Uint32(buf)), buf[4:], nil
}

// Size implements Codec.
func (Int32Codec) Size(int32) int { return 4 }

// VecCodec encodes a fixed-dimension []float64 (ALS latent factors and
// normal-equation accumulators).
type VecCodec struct {
	Dim int
}

// Append implements Codec.
func (c VecCodec) Append(buf []byte, v []float64) []byte {
	if len(v) != c.Dim {
		panic(fmt.Sprintf("core: VecCodec dim %d, value dim %d", c.Dim, len(v)))
	}
	for _, f := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

// Read implements Codec.
func (c VecCodec) Read(buf []byte) ([]float64, []byte, error) {
	if len(buf) < 8*c.Dim {
		return nil, nil, errShortBuffer
	}
	v := make([]float64, c.Dim)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return v, buf[8*c.Dim:], nil
}

// Size implements Codec.
func (c VecCodec) Size([]float64) int { return 8 * c.Dim }

// LabelCountCodec encodes the label-frequency accumulator of community
// detection: pairs of (label, count) sorted by label.
type LabelCountCodec struct{}

// Append implements Codec.
func (LabelCountCodec) Append(buf []byte, v []LabelCount) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	for _, lc := range v {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(lc.Label))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(lc.Count))
	}
	return buf
}

// Read implements Codec.
func (LabelCountCodec) Read(buf []byte) ([]LabelCount, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, errShortBuffer
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < 12*n {
		return nil, nil, errShortBuffer
	}
	v := make([]LabelCount, n)
	for i := range v {
		v[i].Label = int32(binary.LittleEndian.Uint32(buf))
		v[i].Count = math.Float64frombits(binary.LittleEndian.Uint64(buf[4:]))
		buf = buf[12:]
	}
	return v, buf, nil
}

// Size implements Codec.
func (LabelCountCodec) Size(v []LabelCount) int { return 4 + 12*len(v) }

// LabelCount is one (label, weight) pair in a community-detection
// accumulator. Kept sorted by label so merge order does not matter.
type LabelCount struct {
	Label int32
	Count float64
}

// MergeLabelCounts merges two sorted label-count lists.
func MergeLabelCounts(a, b []LabelCount) []LabelCount {
	out := make([]LabelCount, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Label < b[j].Label:
			out = append(out, a[i])
			i++
		case a[i].Label > b[j].Label:
			out = append(out, b[j])
			j++
		default:
			out = append(out, LabelCount{Label: a[i].Label, Count: a[i].Count + b[j].Count})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
