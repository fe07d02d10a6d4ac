package linalg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// FuzzGramCycle hammers the Gram add/remove/rebuild cycle with arbitrary
// observations — including NaN/Inf-carrying and overflow-prone ones — and an
// arbitrary op script, at 1 to 8 columns. The contract under test mirrors
// FuzzSolveLeastSquares: a nil Solve error implies a finite solution of the
// right length, removing past empty must error (never drive N negative),
// and a rebuild (fresh Gram, re-Add of the live window) must solve to the
// same coefficients as a batch LeastSquares over that window, bit-for-bit.
// A twin Gram folds the same script through the generic loops, so at 6 and
// 8 columns the straight-line folds must leave every accumulator bit as
// the loops do (see checkSameGram).
func FuzzGramCycle(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 0, 1, 0, 2})
	f.Add(uint8(1), []byte{}, []byte{1, 1, 1}) // remove-more-than-added
	nan := make([]byte, 16)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(uint8(2), nan, []byte{0, 0, 0, 2})
	huge := make([]byte, 16)
	binary.LittleEndian.PutUint64(huge, math.Float64bits(1e308))
	binary.LittleEndian.PutUint64(huge[8:], math.Float64bits(-1e308))
	f.Add(uint8(4), huge, []byte{0, 0, 0, 0, 1, 1, 2, 0})
	// Full-precision observations at the two straight-line widths, enough
	// for every op of a script that slides a window of four through a
	// rebuild: each fold and downdate must leave the loop's bits.
	script := []byte{0, 0, 0, 0}
	for i := 0; i < 30; i++ {
		script = append(script, 0, 1)
		if i == 14 {
			script = append(script, 2)
		}
	}
	for _, seed := range []uint64{1, 2} {
		f.Add(uint8(5), seedFloats(seed, (len(script)+1)*8), script)
		f.Add(uint8(7), seedFloats(seed, (len(script)+1)*10), script)
	}
	f.Fuzz(func(t *testing.T, kRaw uint8, data, ops []byte) {
		k := int(kRaw)%8 + 1
		if len(ops) > 64 {
			ops = ops[:64]
		}
		vals := floatsFrom(data, (len(ops)+1)*(k+2))
		g, loop := NewGram(k), NewGram(k)
		// live is the window of observations currently folded in, in fold
		// order: op 0 adds the next observation, op 1 removes the oldest,
		// op 2 rebuilds from scratch and cross-checks against the batch path.
		type obs struct {
			row  []float64
			y, w float64
		}
		var live []obs
		next := 0
		takeObs := func() obs {
			o := obs{
				row: vals[next*(k+2) : next*(k+2)+k],
				y:   vals[next*(k+2)+k],
				w:   vals[next*(k+2)+k+1],
			}
			next++
			return o
		}
		checkSolve := func(g *Gram) {
			sol, err := g.Solve()
			if err != nil {
				return
			}
			if len(sol) != k {
				t.Fatalf("solution has %d coefficients, want %d", len(sol), k)
			}
			for _, v := range sol {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("nil error but non-finite solution %v", sol)
				}
			}
		}
		for _, op := range ops {
			switch op % 3 {
			case 0:
				o := takeObs()
				g.Add(o.row, o.y, o.w)
				loop.addLoop(o.row, o.y, o.w)
				loop.n++
				live = append(live, o)
			case 1:
				if len(live) == 0 {
					if err := g.Remove(vals[:k], 0, 1); err != ErrEmptyGram {
						t.Fatalf("Remove on empty Gram: err = %v, want ErrEmptyGram", err)
					}
					continue
				}
				o := live[0]
				live = live[1:]
				if err := g.Remove(o.row, o.y, o.w); err != nil {
					t.Fatalf("Remove with %d live observations: %v", len(live)+1, err)
				}
				loop.removeLoop(o.row, o.y, o.w)
				loop.n--
			case 2:
				rebuilt, loopRebuilt := NewGram(k), NewGram(k)
				rows := make([][]float64, len(live))
				ys := make([]float64, len(live))
				ws := make([]float64, len(live))
				for i, o := range live {
					rebuilt.Add(o.row, o.y, o.w)
					loopRebuilt.addLoop(o.row, o.y, o.w)
					loopRebuilt.n++
					rows[i], ys[i], ws[i] = o.row, o.y, o.w
				}
				if len(live) > 0 {
					bSol, bErr := LeastSquares(rows, ys, ws)
					gSol, gErr := rebuilt.Solve()
					if (bErr == nil) != (gErr == nil) {
						t.Fatalf("rebuild diverged from batch: gram err %v, batch err %v", gErr, bErr)
					}
					if bErr == nil {
						for i := range bSol {
							if gSol[i] != bSol[i] {
								t.Fatalf("rebuild coefficient %d differs: gram %v vs batch %v", i, gSol[i], bSol[i])
							}
						}
					}
				}
				g, loop = rebuilt, loopRebuilt
			}
			if g.N() != len(live) {
				t.Fatalf("N = %d, want %d live observations", g.N(), len(live))
			}
			checkSameGram(t, g, loop)
			checkSolve(g)
		}
	})
}

// checkSameGram fails unless g and want hold the same accumulators bit for
// bit: equal AppendCanonical bytes or, where a non-finite accumulator
// refuses to encode, the same refusal and the same bits.
func checkSameGram(t *testing.T, g, want *Gram) {
	t.Helper()
	enc, refused := gramCanonical(g)
	wantEnc, wantRefused := gramCanonical(want)
	if refused != wantRefused || !bytes.Equal(enc, wantEnc) {
		t.Fatalf("k=%d: accumulators encode as %x (refused %q), loop fold %x (refused %q)", g.k, enc, refused, wantEnc, wantRefused)
	}
	for i := range g.xtx {
		if math.Float64bits(g.xtx[i]) != math.Float64bits(want.xtx[i]) {
			t.Fatalf("k=%d: packed XᵀX entry %d = %v, loop fold %v", g.k, i, g.xtx[i], want.xtx[i])
		}
	}
	for i := range g.xty {
		if math.Float64bits(g.xty[i]) != math.Float64bits(want.xty[i]) {
			t.Fatalf("k=%d: XᵀY entry %d = %v, loop fold %v", g.k, i, g.xty[i], want.xty[i])
		}
	}
}

// gramCanonical returns g.AppendCanonical's bytes, or the panic message
// naming a non-finite accumulator.
func gramCanonical(g *Gram) (enc []byte, refused string) {
	defer func() {
		if p := recover(); p != nil {
			refused = fmt.Sprint(p)
		}
	}()
	return g.AppendCanonical(nil), ""
}

// seedFloats returns n full-precision values, as floatsFrom reads them, so
// products round and a change in multiplication order shows in the bits.
func seedFloats(seed uint64, n int) []byte {
	rng := &splitmix{state: seed}
	var out []byte
	for i := 0; i < n; i++ {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(rng.float()))
	}
	return out
}
