package linalg

import (
	"errors"
	"fmt"
)

// LeastSquares fits coefficients beta minimizing Σ w_i (y_i − x_i·beta)²
// over the rows of the design matrix. weights may be nil for uniform
// weighting. If the normal equations are singular (a metric never varies in
// the calibration set), a small ridge term is added; if that still fails,
// ErrSingular is returned.
//
// It is the one-shot batch form of the paper's regression (§3.2, §4.1),
// kept as the reference that the incremental Gram fold is tested and
// benchmarked against.
func LeastSquares(rows [][]float64, y []float64, weights []float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, errors.New("linalg: no samples")
	}
	if len(rows) != len(y) {
		return nil, fmt.Errorf("linalg: %d rows but %d targets", len(rows), len(y))
	}
	if weights != nil && len(weights) != len(rows) {
		return nil, fmt.Errorf("linalg: %d rows but %d weights", len(rows), len(weights))
	}
	k := len(rows[0])
	for i, r := range rows {
		if len(r) != k {
			return nil, fmt.Errorf("linalg: row %d has %d features, want %d", i, len(r), k)
		}
	}

	// Accumulate the normal equations XᵀWX beta = XᵀWy and solve. Gram's
	// Add/Solve reproduce the historical in-place accumulation and ridge
	// fallback bit-for-bit (see the Gram bit-exactness contract).
	g := NewGram(k)
	for n, row := range rows {
		w := 1.0
		if weights != nil {
			w = weights[n]
		}
		g.Add(row, y[n], w)
	}
	return g.Solve()
}

// cloneMatrix deep-copies a row-major matrix.
func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}
