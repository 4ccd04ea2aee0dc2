package graph

import (
	"errors"
	"math"
	"testing"
)

// The compact layout's index widths are hard limits at paper scale: Twitter
// (1.47B edges) is within 1.5x of int32 overflow, so oversized inputs must
// fail loudly instead of letting a narrowing conversion wrap. checkSize is
// the one home of both limits: the constructors return its error and
// buildCSRKeys panics with it. The |V| path is testable for real (a huge
// count with zero edges allocates nothing); the |E| path would need >2^31
// edges of backing memory, so it is exercised white-box through checkSize.

func TestNewRejectsTooManyVertices(t *testing.T) {
	_, err := New(1<<33, nil)
	if !errors.Is(err, ErrGraphTooLarge) {
		t.Fatalf("New(1<<33, nil) err = %v, want ErrGraphTooLarge", err)
	}
	_, err = NewFromSOA(1<<33, nil, nil, nil)
	if !errors.Is(err, ErrGraphTooLarge) {
		t.Fatalf("NewFromSOA(1<<33, ...) err = %v, want ErrGraphTooLarge", err)
	}
}

func TestCheckSizeLimits(t *testing.T) {
	cases := []struct {
		name     string
		vertices int
		edges    int
		wantErr  bool
	}{
		{"small", 10, 20, false},
		{"max vertices exactly", 1 << 32, 0, false},
		{"one vertex too many", 1<<32 + 1, 0, true},
		{"max edges exactly", 10, math.MaxInt32, false},
		{"one edge too many", 10, math.MaxInt32 + 1, true},
	}
	for _, tc := range cases {
		err := checkSize(tc.vertices, tc.edges)
		if got := err != nil; got != tc.wantErr {
			t.Errorf("%s: checkSize(%d, %d) err = %v, wantErr %v",
				tc.name, tc.vertices, tc.edges, err, tc.wantErr)
		}
		if err != nil && !errors.Is(err, ErrGraphTooLarge) {
			t.Errorf("%s: err %v does not wrap ErrGraphTooLarge", tc.name, err)
		}
	}
}

func TestBuildCSRKeysSmallInputNoPanic(t *testing.T) {
	// buildCSRKeys runs checkSize as its backstop (TestCheckSizeLimits trips
	// it); the backstop must pass a legitimate small input.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("buildCSRKeys panicked on a small input: %v", r)
		}
	}()
	c := buildCSRKeys(3, []uint16{2, 0, 2, 1})
	if got, want := len(c.edgeIdx), 4; got != want {
		t.Fatalf("edgeIdx length = %d, want %d", got, want)
	}
}
