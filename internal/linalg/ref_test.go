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
// benchmarked against. It shares only Solve with the Gram: the normal
// equations are accumulated here in dense loops of its own, so a Gram fold
// that drifts from the documented per-entry products fails the bit-for-bit
// comparisons instead of agreeing with itself.
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

	// Accumulate the normal equations XᵀWX beta = XᵀWy row by row: for
	// column i, wi = w·row[i], then xty[i] += wi·y and xtx[i][j] +=
	// wi·row[j] for j ≥ i. The lower triangle mirrors the upper one.
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	for n, row := range rows {
		w := 1.0
		if weights != nil {
			w = weights[n]
		}
		for i := 0; i < k; i++ {
			wi := w * row[i]
			xty[i] += wi * y[n]
			for j := i; j < k; j++ {
				xtx[i][j] += wi * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			xtx[j][i] = xtx[i][j]
		}
	}

	sol, err := Solve(cloneMatrix(xtx), append([]float64(nil), xty...))
	if err == nil {
		return sol, nil
	}
	// Ridge fallback for a column that never varies: shrink its
	// coefficient toward zero instead of failing.
	const ridge = 1e-6
	reg := cloneMatrix(xtx)
	for i := range reg {
		reg[i][i] += ridge * (1 + xtx[i][i])
	}
	if sol, err = Solve(reg, append([]float64(nil), xty...)); err != nil {
		return nil, ErrSingular
	}
	return sol, nil
}

// cloneMatrix deep-copies a row-major matrix.
func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}
