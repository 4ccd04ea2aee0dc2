package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"imitator/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAddOuterAndDiag(t *testing.T) {
	m := NewDense(2)
	m.AddOuter([]float64{1, 2}, 1)
	m.AddOuter([]float64{3, 0}, 2)
	m.AddDiag(0.5)
	// [1 2; 2 4] + [18 0; 0 0] + 0.5I = [19.5 2; 2 4.5]
	want := [][]float64{{19.5, 2}, {2, 4.5}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(m.At(i, j), want[i][j], 1e-12) {
				t.Errorf("m[%d][%d] = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestAddOuterPanicsOnDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2).AddOuter([]float64{1}, 1)
}

func TestSolveSPDKnown(t *testing.T) {
	a := NewDense(2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	x, err := SolveSPD(a, []float64{8, 7})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+2y=8, 2x+3y=7 -> x=1.25, y=1.5
	if !almostEq(x[0], 1.25, 1e-9) || !almostEq(x[1], 1.5, 1e-9) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveSPDSingular(t *testing.T) {
	a := NewDense(2) // zero matrix
	if _, err := SolveSPD(a, []float64{1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveSPDDimMismatch(t *testing.T) {
	if _, err := SolveSPD(NewDense(2), []float64{1}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSolveKnown(t *testing.T) {
	a := NewDense(3)
	vals := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewDense(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// Property: for random SPD systems (A = Q Qᵀ + I), Cholesky and Gaussian
// elimination agree and satisfy the residual.
func TestSolversAgree(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(6)
		a := NewDense(n)
		for k := 0; k < n+2; k++ {
			q := make([]float64, n)
			for i := range q {
				q[i] = r.NormFloat64()
			}
			a.AddOuter(q, 1)
		}
		a.AddDiag(1)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x1, err1 := SolveSPD(a, b)
		x2, err2 := Solve(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if !almostEq(x1[i], x2[i], 1e-6) {
				return false
			}
			// Residual check: (A x - b)_i ~ 0
			res := -b[i]
			for j := 0; j < n; j++ {
				res += a.At(i, j) * x1[j]
			}
			if !almostEq(res, 0, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAXPYNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY -> %v", y)
	}
}

func TestDotPanicsOnDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
