package bounds_test

import (
	"testing"

	"imitator/internal/analysis/analysistest"
	"imitator/internal/analysis/bounds"
)

func TestNarrowing(t *testing.T) {
	analysistest.Run(t, "testdata", bounds.Narrowing(), "imitator/internal/graph", "imitator/internal/other")
}

// TestDefaultScope pins the narrowing allowlist: exactly the packages that
// build or serialize the SoA/CSR layout.
func TestDefaultScope(t *testing.T) {
	want := map[string]bool{
		"imitator/internal/graph":     true,
		"imitator/internal/gen":       true,
		"imitator/internal/partition": true,
		"imitator/internal/ftlog":     true,
	}
	if len(want) != len(bounds.NarrowingPackages) {
		t.Fatalf("NarrowingPackages has %d entries, want %d", len(bounds.NarrowingPackages), len(want))
	}
	for _, p := range bounds.NarrowingPackages {
		if !want[p] {
			t.Errorf("unexpected narrowing package %q", p)
		}
	}
}
