// Package dfs simulates the HDFS-like distributed file system the paper
// uses for checkpoints and edge-ckpt files. Contents are stored
// byte-for-byte in memory; every read and write returns its simulated cost
// (disk bandwidth, pipelined 3-way replication) from the cost model. The
// engine counts the bytes each node reads and writes itself
// (metrics.Node.DFSReadBytes, DFSWriteBytes).
//
// Write keeps the slice it is given, capped at its length, instead of
// copying it: the writer hands the bytes over and must not touch them
// again. So a vertex-cut load encodes all its edge-ckpt files into one
// exactly-sized arena, each file a capped sub-slice of it, and stores them
// without a copy; an Append onto such a file reallocates rather than write
// into its neighbour. Writers that reuse an encode buffer pass a clone.
// Read returns a copy, so stored bytes are never aliased by a reader.
package dfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"imitator/internal/costmodel"
)

// ErrNotFound reports a missing path.
var ErrNotFound = errors.New("dfs: file not found")

// DFS is a simulated distributed file system shared by all nodes. Write,
// Append and Read name the node they act for, but the store keeps no
// per-node state: costs depend on the bytes alone.
type DFS struct {
	params costmodel.Params

	mu    sync.Mutex
	files map[string][]byte
}

// New creates a DFS for a cluster of numNodes nodes.
func New(numNodes int, params costmodel.Params) (*DFS, error) {
	if numNodes < 1 {
		return nil, fmt.Errorf("dfs: need at least one node, got %d", numNodes)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &DFS{params: params, files: make(map[string][]byte)}, nil
}

// Write stores data at path (replacing any previous content) on behalf of
// node, returning the simulated seconds the write took. The DFS takes
// ownership of data: it stores the slice itself, capped at its length (so a
// later Append reallocates and never writes past it), and the caller must
// not modify data afterwards.
func (d *DFS) Write(node int, path string, data []byte) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.files[path] = data[:len(data):len(data)]
	return d.params.DFSWrite(int64(len(data)))
}

// Append extends the file at path, creating it if needed; returns the
// simulated cost of writing the appended bytes.
func (d *DFS) Append(node int, path string, data []byte) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.files[path] = append(d.files[path], data...)
	return d.params.DFSWrite(int64(len(data)))
}

// Read returns the content at path and the simulated seconds the read took.
// The returned slice is a copy.
func (d *DFS) Read(node int, path string) ([]byte, float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, ok := d.files[path]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return append([]byte(nil), data...), d.params.DFSRead(int64(len(data))), nil
}

// Size returns the size of the file at path, or an error when missing.
func (d *DFS) Size(path string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, ok := d.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return int64(len(data)), nil
}

// Delete removes path; deleting a missing path is a no-op.
func (d *DFS) Delete(path string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, path)
}

// List returns all paths with the given prefix, sorted.
func (d *DFS) List(prefix string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for p := range d.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
