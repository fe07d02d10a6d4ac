package linalg

// The straight-line Add and Remove bodies for the two widths the power
// model's Eq. 2 fits fold: 6 columns (package scope, with the chip-share
// column) and 8 (machine scope). Each computes, for column i,
// wi = w·r[i], then xty[i] ± wi·y and t[p] ± wi·r[j] for j ≥ i, p walking
// the packed upper triangle row by row: the products, and the order each
// accumulator receives them in, of Gram.addLoop and Gram.removeLoop. The
// row is read into locals first, so no store to an accumulator forces a
// reload of it. Written out by hand because a loop over the triangle
// spills its counter on every entry; the fold is the per-sample cost of
// online refitting.

// add6 is Add for a 6-column row, in straight-line code over the
// packed triangle.
func add6(t *[21]float64, xty *[6]float64, r *[6]float64, y, w float64) {
	r0, r1, r2, r3, r4, r5 := r[0], r[1], r[2], r[3], r[4], r[5]
	w0 := w * r0
	xty[0] += w0 * y
	t[0] += w0 * r0
	t[1] += w0 * r1
	t[2] += w0 * r2
	t[3] += w0 * r3
	t[4] += w0 * r4
	t[5] += w0 * r5
	w1 := w * r1
	xty[1] += w1 * y
	t[6] += w1 * r1
	t[7] += w1 * r2
	t[8] += w1 * r3
	t[9] += w1 * r4
	t[10] += w1 * r5
	w2 := w * r2
	xty[2] += w2 * y
	t[11] += w2 * r2
	t[12] += w2 * r3
	t[13] += w2 * r4
	t[14] += w2 * r5
	w3 := w * r3
	xty[3] += w3 * y
	t[15] += w3 * r3
	t[16] += w3 * r4
	t[17] += w3 * r5
	w4 := w * r4
	xty[4] += w4 * y
	t[18] += w4 * r4
	t[19] += w4 * r5
	w5 := w * r5
	xty[5] += w5 * y
	t[20] += w5 * r5
}

// remove6 is Remove for a 6-column row, in straight-line code over the
// packed triangle.
func remove6(t *[21]float64, xty *[6]float64, r *[6]float64, y, w float64) {
	r0, r1, r2, r3, r4, r5 := r[0], r[1], r[2], r[3], r[4], r[5]
	w0 := w * r0
	xty[0] -= w0 * y
	t[0] -= w0 * r0
	t[1] -= w0 * r1
	t[2] -= w0 * r2
	t[3] -= w0 * r3
	t[4] -= w0 * r4
	t[5] -= w0 * r5
	w1 := w * r1
	xty[1] -= w1 * y
	t[6] -= w1 * r1
	t[7] -= w1 * r2
	t[8] -= w1 * r3
	t[9] -= w1 * r4
	t[10] -= w1 * r5
	w2 := w * r2
	xty[2] -= w2 * y
	t[11] -= w2 * r2
	t[12] -= w2 * r3
	t[13] -= w2 * r4
	t[14] -= w2 * r5
	w3 := w * r3
	xty[3] -= w3 * y
	t[15] -= w3 * r3
	t[16] -= w3 * r4
	t[17] -= w3 * r5
	w4 := w * r4
	xty[4] -= w4 * y
	t[18] -= w4 * r4
	t[19] -= w4 * r5
	w5 := w * r5
	xty[5] -= w5 * y
	t[20] -= w5 * r5
}

// add8 is Add for a 8-column row, in straight-line code over the
// packed triangle.
func add8(t *[36]float64, xty *[8]float64, r *[8]float64, y, w float64) {
	r0, r1, r2, r3, r4, r5, r6, r7 := r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
	w0 := w * r0
	xty[0] += w0 * y
	t[0] += w0 * r0
	t[1] += w0 * r1
	t[2] += w0 * r2
	t[3] += w0 * r3
	t[4] += w0 * r4
	t[5] += w0 * r5
	t[6] += w0 * r6
	t[7] += w0 * r7
	w1 := w * r1
	xty[1] += w1 * y
	t[8] += w1 * r1
	t[9] += w1 * r2
	t[10] += w1 * r3
	t[11] += w1 * r4
	t[12] += w1 * r5
	t[13] += w1 * r6
	t[14] += w1 * r7
	w2 := w * r2
	xty[2] += w2 * y
	t[15] += w2 * r2
	t[16] += w2 * r3
	t[17] += w2 * r4
	t[18] += w2 * r5
	t[19] += w2 * r6
	t[20] += w2 * r7
	w3 := w * r3
	xty[3] += w3 * y
	t[21] += w3 * r3
	t[22] += w3 * r4
	t[23] += w3 * r5
	t[24] += w3 * r6
	t[25] += w3 * r7
	w4 := w * r4
	xty[4] += w4 * y
	t[26] += w4 * r4
	t[27] += w4 * r5
	t[28] += w4 * r6
	t[29] += w4 * r7
	w5 := w * r5
	xty[5] += w5 * y
	t[30] += w5 * r5
	t[31] += w5 * r6
	t[32] += w5 * r7
	w6 := w * r6
	xty[6] += w6 * y
	t[33] += w6 * r6
	t[34] += w6 * r7
	w7 := w * r7
	xty[7] += w7 * y
	t[35] += w7 * r7
}

// remove8 is Remove for a 8-column row, in straight-line code over the
// packed triangle.
func remove8(t *[36]float64, xty *[8]float64, r *[8]float64, y, w float64) {
	r0, r1, r2, r3, r4, r5, r6, r7 := r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
	w0 := w * r0
	xty[0] -= w0 * y
	t[0] -= w0 * r0
	t[1] -= w0 * r1
	t[2] -= w0 * r2
	t[3] -= w0 * r3
	t[4] -= w0 * r4
	t[5] -= w0 * r5
	t[6] -= w0 * r6
	t[7] -= w0 * r7
	w1 := w * r1
	xty[1] -= w1 * y
	t[8] -= w1 * r1
	t[9] -= w1 * r2
	t[10] -= w1 * r3
	t[11] -= w1 * r4
	t[12] -= w1 * r5
	t[13] -= w1 * r6
	t[14] -= w1 * r7
	w2 := w * r2
	xty[2] -= w2 * y
	t[15] -= w2 * r2
	t[16] -= w2 * r3
	t[17] -= w2 * r4
	t[18] -= w2 * r5
	t[19] -= w2 * r6
	t[20] -= w2 * r7
	w3 := w * r3
	xty[3] -= w3 * y
	t[21] -= w3 * r3
	t[22] -= w3 * r4
	t[23] -= w3 * r5
	t[24] -= w3 * r6
	t[25] -= w3 * r7
	w4 := w * r4
	xty[4] -= w4 * y
	t[26] -= w4 * r4
	t[27] -= w4 * r5
	t[28] -= w4 * r6
	t[29] -= w4 * r7
	w5 := w * r5
	xty[5] -= w5 * y
	t[30] -= w5 * r5
	t[31] -= w5 * r6
	t[32] -= w5 * r7
	w6 := w * r6
	xty[6] -= w6 * y
	t[33] -= w6 * r6
	t[34] -= w6 * r7
	w7 := w * r7
	xty[7] -= w7 * y
	t[35] -= w7 * r7
}
