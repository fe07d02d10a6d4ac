package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"powercontainers/internal/sim"
)

func TestSolveIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{3, 4}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 4 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{5, 7}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-5) > 1e-12 {
		t.Fatalf("x = %v, want [7 5]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := Solve(a, b); err == nil {
		t.Fatal("singular system did not error")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(nil, nil); err == nil {
		t.Fatal("empty system did not error")
	}
	if _, err := Solve([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("non-square system did not error")
	}
	if _, err := Solve([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched rhs did not error")
	}
}

// TestSolveRandomRoundTrip generates random well-conditioned systems,
// computes b = A·x, and verifies Solve recovers x.
func TestSolveRandomRoundTrip(t *testing.T) {
	r := sim.NewRand(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(6)
		a := make([][]float64, n)
		x := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.Float64()*2 - 1
			}
			a[i][i] += float64(n) // diagonal dominance for conditioning
			x[i] = r.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := range b {
			for j := range x {
				b[i] += a[i][j] * x[j]
			}
		}
		got, err := Solve(cloneMatrix(a), append([]float64(nil), b...))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], x[i])
			}
		}
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 2 + 3a − b with more samples than unknowns: residuals are zero
	// so the fit must be exact.
	rows := [][]float64{
		{1, 0, 0},
		{1, 1, 0},
		{1, 0, 1},
		{1, 2, 3},
		{1, 5, 1},
	}
	beta := []float64{2, 3, -1}
	y := make([]float64, len(rows))
	for i, r := range rows {
		y[i] = dotProduct(r, beta)
	}
	got, err := LeastSquares(rows, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range beta {
		if math.Abs(got[i]-beta[i]) > 1e-9 {
			t.Fatalf("beta = %v, want %v", got, beta)
		}
	}
}

func TestLeastSquaresNoisyFit(t *testing.T) {
	r := sim.NewRand(123)
	trueBeta := []float64{5, 1.5, -0.5}
	var rows [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		row := []float64{1, r.Float64() * 4, r.Float64() * 4}
		rows = append(rows, row)
		y = append(y, dotProduct(row, trueBeta)+r.NormFloat64(0.2))
	}
	got, err := LeastSquares(rows, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trueBeta {
		if math.Abs(got[i]-trueBeta[i]) > 0.05 {
			t.Fatalf("beta[%d] = %g, want ≈%g", i, got[i], trueBeta[i])
		}
	}
}

func TestLeastSquaresWeighted(t *testing.T) {
	// Two inconsistent observations of a constant; the weighted mean must
	// track the weights.
	rows := [][]float64{{1}, {1}}
	y := []float64{0, 10}
	got, err := LeastSquares(rows, y, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-2.5) > 1e-9 {
		t.Fatalf("weighted mean = %g, want 2.5", got[0])
	}
}

func TestLeastSquaresDegenerateColumn(t *testing.T) {
	// A feature that is always zero would make the normal equations
	// singular; the ridge fallback must shrink its coefficient to ~0 and
	// still fit the live features.
	rows := [][]float64{
		{1, 2, 0},
		{1, 3, 0},
		{1, 5, 0},
		{1, 7, 0},
	}
	y := []float64{5, 7, 11, 15} // y = 1 + 2a
	got, err := LeastSquares(rows, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1) > 1e-3 || math.Abs(got[1]-2) > 1e-3 {
		t.Fatalf("fit = %v, want ≈[1 2 0]", got)
	}
	if math.Abs(got[2]) > 1e-3 {
		t.Fatalf("dead feature coefficient = %g, want ≈0", got[2])
	}
}

func TestLeastSquaresShapeErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil, nil); err == nil {
		t.Fatal("no samples did not error")
	}
	if _, err := LeastSquares([][]float64{{1}}, []float64{1, 2}, nil); err == nil {
		t.Fatal("target length mismatch did not error")
	}
	if _, err := LeastSquares([][]float64{{1}}, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("weight length mismatch did not error")
	}
	if _, err := LeastSquares([][]float64{{1}, {1, 2}}, []float64{1, 2}, nil); err == nil {
		t.Fatal("ragged rows did not error")
	}
}

// Property: least squares residual is orthogonal to every feature column.
func TestLeastSquaresNormalEquationsProperty(t *testing.T) {
	r := sim.NewRand(7)
	f := func(seed uint16) bool {
		rr := r.Fork(uint64(seed))
		n, k := 20, 3
		rows := make([][]float64, n)
		y := make([]float64, n)
		for i := range rows {
			rows[i] = []float64{1, rr.Float64() * 3, rr.Float64() * 3}
			y[i] = rr.Float64() * 10
		}
		beta, err := LeastSquares(rows, y, nil)
		if err != nil {
			return false
		}
		for j := 0; j < k; j++ {
			var dot float64
			for i := range rows {
				dot += rows[i][j] * (y[i] - dotProduct(rows[i], beta))
			}
			if math.Abs(dot) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// dotProduct returns the inner product of two equal-length vectors.
func dotProduct(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
