package determinism_test

import (
	"testing"

	"imitator/internal/analysis/analysistest"
	"imitator/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	a := determinism.New([]string{"detsim"})
	analysistest.Run(t, "testdata", a, "detsim", "nonsim")
}

func TestDefaultScope(t *testing.T) {
	// The default scope must pin exactly the packages whose state feeds
	// simulated time, bytes and traces; a rename that silently drops one
	// out of scope should fail loudly.
	want := map[string]bool{
		"imitator/internal/chaos":     true,
		"imitator/internal/core":      true,
		"imitator/internal/netsim":    true,
		"imitator/internal/coord":     true,
		"imitator/internal/costmodel": true,
		"imitator/internal/dfs":       true,
		"imitator/internal/ftlog":     true,
		"imitator/internal/gossip":    true,
		"imitator/internal/partition": true,
		"imitator/internal/rng":       true,
		"imitator/internal/hostpar":   true,
		"imitator/internal/gen":       true,
	}
	if len(determinism.DefaultSimPackages) != len(want) {
		t.Fatalf("DefaultSimPackages has %d entries, want %d", len(determinism.DefaultSimPackages), len(want))
	}
	for _, p := range determinism.DefaultSimPackages {
		if !want[p] {
			t.Errorf("unexpected sim package %q", p)
		}
	}
}
