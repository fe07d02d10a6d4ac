package linalg

import (
	"math"
	"testing"
)

// deterministic pseudo-random stream for test designs (no math/rand in this
// repo's test idiom where reproducibility matters).
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) float() float64 {
	return float64(s.next()>>11)/(1<<53)*4 - 2
}

func testRows(seed uint64, n, k int) (rows [][]float64, y, w []float64) {
	rng := &splitmix{state: seed}
	rows = make([][]float64, n)
	y = make([]float64, n)
	w = make([]float64, n)
	for i := range rows {
		rows[i] = make([]float64, k)
		for j := range rows[i] {
			rows[i][j] = rng.float()
		}
		y[i] = rng.float()
		w[i] = 0.5 + rng.float()*0.25 + 1 // in [0.75, 1.75] roughly, always positive
	}
	return rows, y, w
}

// TestGramMatchesLeastSquaresExactly pins the bit-exactness contract: folding
// rows through Add and solving must reproduce LeastSquares bit-for-bit. The
// widths cover the loop (1, 3) and both straight-line folds (6, 8). Short
// designs over several seeds keep every accumulator entry observable: in a
// long sum, rounding absorbs most one-ulp changes to a single product, so
// one 40-row design let a reassociated product pass unseen.
func TestGramMatchesLeastSquaresExactly(t *testing.T) {
	for _, k := range []int{1, 3, 6, 8} {
		for _, n := range []int{12, 40} {
			for seed := uint64(1); seed <= 8; seed++ {
				rows, y, w := testRows(seed, n, k)
				want, err := LeastSquares(rows, y, w)
				if err != nil {
					t.Fatalf("k=%d n=%d seed %d: LeastSquares: %v", k, n, seed, err)
				}
				g := NewGram(k)
				for i, row := range rows {
					g.Add(row, y[i], w[i])
				}
				got, err := g.Solve()
				if err != nil {
					t.Fatalf("k=%d n=%d seed %d: Gram.Solve: %v", k, n, seed, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k=%d n=%d seed %d: coefficient %d differs: gram %v vs batch %v", k, n, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGramAddRemoveWindow slides a window over a sample stream and checks the
// downdated solution against a from-scratch batch fit of the retained rows.
func TestGramAddRemoveWindow(t *testing.T) {
	const n, k, window = 60, 4, 25
	rows, y, w := testRows(99, n, k)
	g := NewGram(k)
	for i := 0; i < n; i++ {
		g.Add(rows[i], y[i], w[i])
		if i >= window {
			evict := i - window
			if err := g.Remove(rows[evict], y[evict], w[evict]); err != nil {
				t.Fatalf("Remove(%d): %v", evict, err)
			}
		}
	}
	lo := n - window
	if g.N() != window {
		t.Fatalf("N = %d, want %d", g.N(), window)
	}
	want, err := LeastSquares(rows[lo:], y[lo:], w[lo:])
	if err != nil {
		t.Fatalf("batch fit: %v", err)
	}
	got, err := g.Solve()
	if err != nil {
		t.Fatalf("Gram.Solve: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("coefficient %d drifted past tolerance: gram %v vs batch %v", i, got[i], want[i])
		}
	}
}

func TestGramRemoveUnderflow(t *testing.T) {
	g := NewGram(2)
	row := []float64{1, 2}
	if err := g.Remove(row, 1, 1); err != ErrEmptyGram {
		t.Fatalf("Remove on empty Gram: err = %v, want ErrEmptyGram", err)
	}
	g.Add(row, 1, 1)
	if err := g.Remove(row, 1, 1); err != nil {
		t.Fatalf("Remove after Add: %v", err)
	}
	if err := g.Remove(row, 1, 1); err != ErrEmptyGram {
		t.Fatalf("second Remove: err = %v, want ErrEmptyGram", err)
	}
}

// TestGramSubsetMatchesProjectedFit checks that projecting an accumulated
// Gram onto a column subset equals a Gram built directly from the projected
// rows — bit-for-bit, since the retained accumulator entries saw identical
// addition sequences.
func TestGramSubsetMatchesProjectedFit(t *testing.T) {
	const n, k = 30, 6
	cols := []int{0, 2, 3, 5}
	rows, y, w := testRows(7, n, k)
	full := NewGram(k)
	proj := NewGram(len(cols))
	for i, row := range rows {
		full.Add(row, y[i], w[i])
		sub := make([]float64, len(cols))
		for j, c := range cols {
			sub[j] = row[c]
		}
		proj.Add(sub, y[i], w[i])
	}
	got, err := full.Subset(cols).Solve()
	if err != nil {
		t.Fatalf("subset solve: %v", err)
	}
	want, err := proj.Solve()
	if err != nil {
		t.Fatalf("projected solve: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coefficient %d differs: subset %v vs projected %v", i, got[i], want[i])
		}
	}
}

func TestGramSubsetValidation(t *testing.T) {
	g := NewGram(4)
	for _, cols := range [][]int{{}, {2, 1}, {0, 0}, {3, 4}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Subset(%v) did not panic", cols)
				}
			}()
			g.Subset(cols)
		}()
	}
}

func TestGramCloneIndependence(t *testing.T) {
	rows, y, w := testRows(3, 10, 3)
	g := NewGram(3)
	for i, row := range rows {
		g.Add(row, y[i], w[i])
	}
	snap := g.Clone()
	base, err := snap.Solve()
	if err != nil {
		t.Fatalf("snapshot solve: %v", err)
	}
	// Mutate the original; the clone's solution must not move.
	g.Add([]float64{9, 9, 9}, 100, 2)
	after, err := snap.Solve()
	if err != nil {
		t.Fatalf("snapshot solve after mutation: %v", err)
	}
	for i := range base {
		if base[i] != after[i] {
			t.Fatalf("clone aliased original: coefficient %d moved %v -> %v", i, base[i], after[i])
		}
	}
}

func TestGramEmptySolve(t *testing.T) {
	if _, err := NewGram(3).Solve(); err == nil {
		t.Fatal("Solve on empty Gram succeeded")
	}
}
