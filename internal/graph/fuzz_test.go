package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList hardens the parser: arbitrary input must either parse
// into a valid graph or return an error — never panic, never produce
// out-of-range endpoints.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 2.5\n# comment\n")
	f.Add("")
	f.Add("x y\n")
	f.Add("4294967295 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input), 0)
		if err != nil {
			return
		}
		for i := range g.NumEdges() {
			e := g.Edge(i)
			if int(e.Src) >= g.NumVertices() || int(e.Dst) >= g.NumVertices() {
				t.Fatalf("edge endpoint out of range: %+v with %d vertices", e, g.NumVertices())
			}
		}
		// A successfully parsed graph must round-trip.
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf, g.NumVertices())
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if back.NumEdges() != g.NumEdges() {
			t.Fatalf("round-trip edges %d != %d", back.NumEdges(), g.NumEdges())
		}
	})
}
