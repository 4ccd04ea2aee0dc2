package partition

import (
	"testing"

	"imitator/internal/datasets"
	"imitator/internal/graph"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return datasets.Tiny(20000, 120000, 999)
}

func BenchmarkHashEdgeCut(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HashEdgeCut(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFennelEdgeCut(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FennelEdgeCut(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLDGEdgeCut(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LDGEdgeCut(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybridVertexCut(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HybridVertexCut(g, 16, DefaultHybridCutConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridVertexCut(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GridVertexCut(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObliviousVertexCut(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ObliviousVertexCut(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}
