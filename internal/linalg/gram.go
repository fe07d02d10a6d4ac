package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
//
// XᵀWX is symmetric, so only its upper triangle is kept, packed into one
// slice row by row: entry (i, j), i ≤ j, sits at tri(k, i, j). That is the
// order AppendCanonical writes it in, and Solve mirrors it into a dense
// scratch matrix.
type Gram struct {
	k   int
	n   int
	xtx []float64 // packed upper triangle of XᵀWX, k(k+1)/2 entries
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
	return &Gram{k: k, xty: make([]float64, k), xtx: make([]float64, k*(k+1)/2)}
}

// tri returns the index of entry (i, j), i ≤ j, of a k-column packed upper
// triangle: row i starts after the k+(k-1)+…+(k-i+1) entries of rows 0 to
// i-1, and (i, j) is j-i entries into it.
func tri(k, i, j int) int { return i*(2*k-i-1)/2 + j }

// K returns the feature count.
func (g *Gram) K() int { return g.k }

// N returns the number of folded observations (adds minus removes).
func (g *Gram) N() int { return g.n }

// Add folds one weighted observation into the accumulators. For each
// column i it forms wi = w·row[i] and adds wi·y to XᵀWy[i] and wi·row[j]
// to XᵀWX(i, j), j ≥ i: the products LeastSquares accumulates, in the
// same order, which is what the bit-exactness contract rests on. Rows of
// 6 and 8 columns, the widths the power model's Eq. 2 fits fold, take a
// straight-line body (fold.go); every other width takes the loop.
func (g *Gram) Add(row []float64, y, w float64) {
	if len(row) != g.k {
		panic(fmt.Sprintf("linalg: Gram.Add row has %d features, want %d", len(row), g.k))
	}
	switch g.k {
	case 6:
		add6((*[21]float64)(g.xtx), (*[6]float64)(g.xty), (*[6]float64)(row), y, w)
	case 8:
		add8((*[36]float64)(g.xtx), (*[8]float64)(g.xty), (*[8]float64)(row), y, w)
	default:
		g.addLoop(row, y, w)
	}
	g.n++
}

// addLoop is Add's fold for any row width.
func (g *Gram) addLoop(row []float64, y, w float64) {
	p := 0
	for i := 0; i < g.k; i++ {
		wi := w * row[i]
		g.xty[i] += wi * y
		for j := i; j < g.k; j++ {
			g.xtx[p] += wi * row[j]
			p++
		}
	}
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
	switch g.k {
	case 6:
		remove6((*[21]float64)(g.xtx), (*[6]float64)(g.xty), (*[6]float64)(row), y, w)
	case 8:
		remove8((*[36]float64)(g.xtx), (*[8]float64)(g.xty), (*[8]float64)(row), y, w)
	default:
		g.removeLoop(row, y, w)
	}
	g.n--
	return nil
}

// removeLoop is Remove's fold for any row width.
func (g *Gram) removeLoop(row []float64, y, w float64) {
	p := 0
	for i := 0; i < g.k; i++ {
		wi := w * row[i]
		g.xty[i] -= wi * y
		for j := i; j < g.k; j++ {
			g.xtx[p] -= wi * row[j]
			p++
		}
	}
}

// Clone returns an independent deep copy; the snapshot pattern for the
// rebuild policy (clone the never-evicted offline base, re-fold the live
// online window).
func (g *Gram) Clone() *Gram {
	return &Gram{k: g.k, n: g.n, xtx: append([]float64(nil), g.xtx...), xty: append([]float64(nil), g.xty...)}
}

// AppendCanonical appends the accumulators' canonical bytes to dst and
// returns the extended slice: k and n, then the upper triangle of XᵀX row
// by row, then XᵀY, each value as 8 little-endian bytes (a float64 as its
// IEEE-754 bits). The accumulators go verbatim, Remove's rounding residue
// included, rather than the algebraically equal "clean" ones a rebuild
// from the retained observations would give, so two Grams encode alike
// only when every bit agrees: that is what lets a streaming checkpoint's
// digest catch an ulp-level divergence. A non-finite accumulator, which
// no fold of finite rows produces, panics naming its entry.
func (g *Gram) AppendCanonical(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.k))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.n))
	p := 0
	for i := 0; i < g.k; i++ {
		for j := i; j < g.k; j++ {
			v := g.xtx[p]
			if !isFinite(v) {
				panic(fmt.Sprintf("linalg: Gram xtx[%d][%d] is not finite: %v", i, j, v))
			}
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			p++
		}
	}
	for i, v := range g.xty {
		if !isFinite(v) {
			panic(fmt.Sprintf("linalg: Gram xty[%d] is not finite: %v", i, v))
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
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
	p := 0
	for i, ci := range cols {
		out.xty[i] = g.xty[ci]
		// Upper triangle only: ci ≤ cj holds since cols ascend.
		for _, cj := range cols[i:] {
			out.xtx[p] = g.xtx[tri(g.k, ci, cj)]
			p++
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
	p := 0
	for i := 0; i < g.k; i++ {
		for j := i; j < g.k; j++ {
			out[i][j], out[j][i] = g.xtx[p], g.xtx[p]
			p++
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
		reg[i][i] += ridge * (1 + g.xtx[tri(g.k, i, i)])
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
