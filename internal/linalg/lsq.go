// Package linalg implements the small dense linear algebra needed for power
// model calibration: least-squares fitting via the normal equations and
// Gaussian elimination with partial pivoting. The systems involved are tiny
// (≤ ~10 unknowns), so numerical sophistication beyond pivoting and a
// ridge fallback for rank-deficient designs is unnecessary.
package linalg

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a linear system has no unique solution even
// after regularization.
var ErrSingular = errors.New("linalg: singular system")

// Solve solves the square system a·x = b in place (a and b are clobbered)
// using Gaussian elimination with partial pivoting.
func Solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errors.New("linalg: empty system")
	}
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("linalg: row %d has %d columns, want %d", i, len(row), n)
		}
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs has %d entries, want %d", len(b), n)
	}

	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude entry in this column.
		pivot := col
		max := abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if m := abs(a[r][col]); m > max {
				max, pivot = m, r
			}
		}
		// Written as a negated >= so a NaN pivot (from NaN/Inf inputs)
		// also lands in the singular branch: NaN compares false both ways.
		if !(max >= 1e-12) {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]

		//pclint:allow floatsafe pivot magnitude is checked >= 1e-12 above before the swap
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			//pclint:allow floatsafe exact-zero fast path skipping a no-op row update
			if f == 0 {
				continue
			}
			a[r][col] = 0
			for c := col + 1; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}

	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for c := i + 1; c < n; c++ {
			sum -= a[i][c] * x[c]
		}
		//pclint:allow floatsafe pivots are >= 1e-12 and non-finite solutions are rejected below
		x[i] = sum / a[i][i]
	}
	// Finite pivots do not guarantee a finite solution: intermediate
	// elimination can overflow on extreme (or non-finite) inputs. A
	// non-finite solution is useless to callers, so classify it singular.
	for _, v := range x {
		if !isFinite(v) {
			return nil, ErrSingular
		}
	}
	return x, nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
//
//pclint:allow floatsafe v-v == 0 is the canonical finiteness test (NaN and Inf fail it)
func isFinite(v float64) bool { return v-v == 0 }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
