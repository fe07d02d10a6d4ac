package linalg

import (
	"errors"
	"fmt"
)

// Gram holds the sufficient statistics of a weighted least-squares problem:
// the normal-equation accumulators XᵀWX and XᵀWy plus the folded row count.
// It turns the O(n·k²) per-refit accumulation of a batch fit (the
// LeastSquares reference the tests keep) into O(k²) incremental updates:
// Add folds one observation in, Remove folds one out (exact rank-1
// downdate of the accumulators), and Solve runs the same pivoted
// elimination + ridge fallback as LeastSquares on the current state.
//
// Bit-exactness contract: folding rows via Add in order performs the exact
// same floating-point additions, in the same order, as one LeastSquares call
// over those rows — so Gram-based fits reproduce batch fits bit-for-bit
// until the first Remove. Remove introduces rounding-level residue (float
// addition does not associate), which callers bound with periodic exact
// rebuilds from a retained base (see Clone).
type Gram struct {
	k   int
	n   int
	xtx [][]float64 // upper triangle maintained; mirrored on Solve
	xty []float64

	// Solve scratch, lazily built and reused across calls: the streaming
	// engine refits every tick, and a fresh dense mirror per solve was a
	// measurable share of its steady-state allocations. Solve clobbers
	// the scratch and returns a freshly allocated solution, so nothing
	// the caller retains aliases it.
	scratchM    [][]float64
	scratchBack []float64
	scratchB    []float64
}

// NewGram returns an empty accumulator for k-feature rows.
func NewGram(k int) *Gram {
	if k <= 0 {
		panic(fmt.Sprintf("linalg: NewGram with %d features", k))
	}
	g := &Gram{k: k, xty: make([]float64, k), xtx: make([][]float64, k)}
	for i := range g.xtx {
		g.xtx[i] = make([]float64, k)
	}
	return g
}

// K returns the feature count.
func (g *Gram) K() int { return g.k }

// N returns the number of folded observations (adds minus removes).
func (g *Gram) N() int { return g.n }

// Add folds one weighted observation into the accumulators. The loop body
// mirrors LeastSquares' accumulation exactly (same products, same addition
// order) to preserve the bit-exactness contract.
func (g *Gram) Add(row []float64, y, w float64) {
	if len(row) != g.k {
		panic(fmt.Sprintf("linalg: Gram.Add row has %d features, want %d", len(row), g.k))
	}
	for i := 0; i < g.k; i++ {
		wi := w * row[i]
		g.xty[i] += wi * y
		for j := i; j < g.k; j++ {
			g.xtx[i][j] += wi * row[j]
		}
	}
	g.n++
}

// ErrEmptyGram is returned by Remove when no observations remain.
var ErrEmptyGram = errors.New("linalg: remove from empty Gram")

// Remove folds one observation out of the accumulators by subtracting the
// exact terms Add contributed. The subtraction is algebraically exact but
// floats do not associate, so repeated Remove accumulates rounding residue;
// callers rebuild periodically (Clone a retained base and re-Add).
func (g *Gram) Remove(row []float64, y, w float64) error {
	if len(row) != g.k {
		panic(fmt.Sprintf("linalg: Gram.Remove row has %d features, want %d", len(row), g.k))
	}
	if g.n == 0 {
		return ErrEmptyGram
	}
	for i := 0; i < g.k; i++ {
		wi := w * row[i]
		g.xty[i] -= wi * y
		for j := i; j < g.k; j++ {
			g.xtx[i][j] -= wi * row[j]
		}
	}
	g.n--
	return nil
}

// Clone returns an independent deep copy; the snapshot pattern for the
// rebuild policy (clone the never-evicted offline base, re-fold the live
// online window).
func (g *Gram) Clone() *Gram {
	out := &Gram{k: g.k, n: g.n, xty: append([]float64(nil), g.xty...)}
	out.xtx = make([][]float64, g.k)
	for i, row := range g.xtx {
		out.xtx[i] = append([]float64(nil), row...)
	}
	return out
}

// GramState is the serializable snapshot of a Gram accumulator. Streaming
// checkpoints must carry the accumulators verbatim — rebuilding from the
// retained observation window would yield the algebraically equal but
// bit-different "clean" accumulators (Remove leaves rounding residue), and
// the restored engine would diverge from the uninterrupted one at the ulp
// level. JSON round-trips float64 exactly, so State/GramFromState preserve
// every bit, residue included.
type GramState struct {
	K   int         `json:"k"`
	N   int         `json:"n"`
	XtX [][]float64 `json:"xtx"` // upper triangle, row i holds columns [i, k)
	XtY []float64   `json:"xty"`
}

// State returns a deep-copied snapshot of the accumulators.
func (g *Gram) State() GramState {
	st := GramState{K: g.k, N: g.n, XtY: append([]float64(nil), g.xty...)}
	st.XtX = make([][]float64, g.k)
	for i, row := range g.xtx {
		st.XtX[i] = append([]float64(nil), row[i:]...)
	}
	return st
}

// GramFromState reconstructs an accumulator from a snapshot.
func GramFromState(st GramState) (*Gram, error) {
	if st.K <= 0 || st.N < 0 || len(st.XtY) != st.K || len(st.XtX) != st.K {
		return nil, fmt.Errorf("linalg: invalid Gram state (k=%d n=%d |xty|=%d |xtx|=%d)", st.K, st.N, len(st.XtY), len(st.XtX))
	}
	g := NewGram(st.K)
	g.n = st.N
	copy(g.xty, st.XtY)
	for i, row := range st.XtX {
		if len(row) != st.K-i {
			return nil, fmt.Errorf("linalg: Gram state row %d has %d entries, want %d", i, len(row), st.K-i)
		}
		copy(g.xtx[i][i:], row)
	}
	return g, nil
}

// Subset projects the accumulators onto the given strictly-increasing column
// indices, returning the Gram a fit over only those features would have
// produced from the same rows — entry (i,j) of the result is entry
// (cols[i], cols[j]) of g, which was accumulated from the identical product
// sequence. This lets one pass over calibration samples serve nested feature
// layouts (Eq. 1 is Eq. 2 minus the chip-share column).
func (g *Gram) Subset(cols []int) *Gram {
	if len(cols) == 0 {
		panic("linalg: Gram.Subset with no columns")
	}
	prev := -1
	for _, c := range cols {
		if c <= prev || c >= g.k {
			panic(fmt.Sprintf("linalg: Gram.Subset columns %v not strictly increasing within [0,%d)", cols, g.k))
		}
		prev = c
	}
	out := NewGram(len(cols))
	out.n = g.n
	for i, ci := range cols {
		out.xty[i] = g.xty[ci]
		for j, cj := range cols {
			if j < i {
				continue // upper triangle only; ci<cj holds since cols ascend
			}
			out.xtx[i][j] = g.xtx[ci][cj]
		}
	}
	return out
}

// dense fills the reusable scratch with the mirrored full normal matrix.
// Each call refreshes the scratch from the accumulators, so clobbering by
// a previous Solve does not leak into the next one.
func (g *Gram) dense() [][]float64 {
	if g.scratchM == nil {
		g.scratchBack = make([]float64, g.k*g.k)
		g.scratchM = make([][]float64, g.k)
		for i := range g.scratchM {
			g.scratchM[i] = g.scratchBack[i*g.k : (i+1)*g.k : (i+1)*g.k]
		}
	}
	out := g.scratchM
	for i := range out {
		copy(out[i], g.xtx[i])
	}
	for i := 0; i < g.k; i++ {
		for j := 0; j < i; j++ {
			out[i][j] = out[j][i]
		}
	}
	return out
}

// Solve solves the accumulated normal equations with the same pivoted
// elimination and ridge fallback as LeastSquares, leaving the accumulators
// untouched. With no folded observations there is no meaningful system.
func (g *Gram) Solve() ([]float64, error) {
	if g.n == 0 {
		return nil, errors.New("linalg: no samples")
	}
	sol, err := Solve(g.dense(), g.rhs())
	if err == nil {
		return sol, nil
	}
	// Ridge fallback: a metric that never varies in the calibration
	// workloads makes XᵀX singular; shrink its coefficient toward zero
	// instead of failing the whole calibration.
	const ridge = 1e-6
	reg := g.dense()
	for i := 0; i < g.k; i++ {
		reg[i][i] += ridge * (1 + g.xtx[i][i])
	}
	sol, err = Solve(reg, g.rhs())
	if err != nil {
		return nil, ErrSingular
	}
	return sol, nil
}

// rhs copies the accumulated XᵀY into the reusable right-hand-side
// scratch (Solve clobbers its b argument).
func (g *Gram) rhs() []float64 {
	if g.scratchB == nil {
		g.scratchB = make([]float64, g.k)
	}
	copy(g.scratchB, g.xty)
	return g.scratchB
}
