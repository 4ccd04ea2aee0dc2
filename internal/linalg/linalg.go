// Package linalg provides the small dense linear algebra needed by the ALS
// (alternating least squares) vertex program: accumulation of normal
// equations A += q qᵀ, b += r·q, and a symmetric positive-definite solve via
// Cholesky factorization with a Gaussian-elimination fallback.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports a matrix that cannot be factorized/solved.
var ErrSingular = errors.New("linalg: singular matrix")

// Dense is a square row-major matrix of dimension N.
type Dense struct {
	N    int
	Data []float64 // len N*N
}

// NewDense returns an N x N zero matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set sets element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// AddOuter adds scale * (q qᵀ) to m. q must have length N.
func (m *Dense) AddOuter(q []float64, scale float64) {
	if len(q) != m.N {
		panic(fmt.Sprintf("linalg: AddOuter dim %d != %d", len(q), m.N))
	}
	for i := 0; i < m.N; i++ {
		qi := q[i] * scale
		row := m.Data[i*m.N : (i+1)*m.N]
		for j := 0; j < m.N; j++ {
			row[j] += qi * q[j]
		}
	}
}

// AddDiag adds lambda to every diagonal element (ridge regularization).
func (m *Dense) AddDiag(lambda float64) {
	for i := 0; i < m.N; i++ {
		m.Data[i*m.N+i] += lambda
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.N)
	copy(c.Data, m.Data)
	return c
}

// SolveSPD solves A x = b for symmetric positive-definite A by Cholesky
// factorization. A and b are not modified. Returns ErrSingular when A is not
// (numerically) positive definite.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	n := a.N
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs dim %d != %d", len(b), n)
	}
	// Cholesky: A = L Lᵀ, lower triangle stored in l.
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrSingular
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	// Forward substitution: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * y[k]
		}
		y[i] = sum / l[i*n+i]
	}
	// Back substitution: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	return x, nil
}

// Solve solves A x = b by Gaussian elimination with partial pivoting. A and
// b are not modified. Works for general (not necessarily SPD) matrices.
func Solve(a *Dense, b []float64) ([]float64, error) {
	n := a.N
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs dim %d != %d", len(b), n)
	}
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[pivot*n+j] = m.Data[pivot*n+j], m.Data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Data[r*n+j] -= f * m.Data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= m.At(i, j) * x[j]
		}
		x[i] = sum / m.At(i, i)
	}
	return x, nil
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot dimension mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AXPY computes y += alpha * x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY dimension mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}
