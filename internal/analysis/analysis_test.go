package analysis_test

import (
	"testing"

	"imitator/internal/analysis"
)

// TestInPackages covers the pattern shapes a scoped analyzer uses: full
// import paths (narrowing's defaults) and fixture short names.
func TestInPackages(t *testing.T) {
	defaults := []string{"imitator/internal/core", "imitator/internal/graph"}
	for _, tc := range []struct {
		path string
		pkgs []string
		want bool
	}{
		{"imitator/internal/graph", defaults, true},
		{"example.com/x/imitator/internal/core", defaults, true},
		{"detsim", []string{"detsim"}, true},
		{"testdata/src/detsim", []string{"detsim"}, true},
		{"nonsim", []string{"detsim"}, false},
		{"imitator/internal/other", defaults, false},
		{"imitator/internal/coreutil", defaults, false},
		{"imitator/internal/core_test", defaults, false},
		{"imitator/internal/graph", nil, false},
	} {
		if got := analysis.InPackages(tc.path, tc.pkgs); got != tc.want {
			t.Errorf("InPackages(%q, %q) = %v, want %v", tc.path, tc.pkgs, got, tc.want)
		}
	}
}
