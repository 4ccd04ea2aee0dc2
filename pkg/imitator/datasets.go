package imitator

import (
	"io"

	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// Dataset describes one catalog entry (scaled stand-in for a paper dataset).
type Dataset = datasets.Dataset

// Datasets returns the dataset catalog keyed by name.
func Datasets() map[string]Dataset { return datasets.Catalog() }

// DatasetNames returns the catalog names in stable order.
func DatasetNames() []string { return datasets.Names() }

// LoadDataset synthesizes the named catalog dataset deterministically.
func LoadDataset(name string) (*Graph, error) { return datasets.Load(name) }

// MustLoadDataset is LoadDataset, panicking on unknown names.
func MustLoadDataset(name string) *Graph { return datasets.MustLoad(name) }

// ReadEdgeList parses a whitespace-separated "src dst [weight]" edge list.
// numVertices == 0 sizes the graph from the largest id seen.
func ReadEdgeList(r io.Reader, numVertices int) (*Graph, error) {
	return graph.ReadEdgeList(r, numVertices)
}

// NewGraph builds a graph from an explicit edge set.
func NewGraph(numVertices int, edges []Edge) (*Graph, error) {
	return graph.New(numVertices, edges)
}
