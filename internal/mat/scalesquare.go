package mat

import (
	"fmt"
	"math"
)

// scaleSquare leaves e^a in ws.b by scaling and squaring with the Padé 13
// approximant, the scaling power chosen from ‖a‖∞ alone. A non-nil e is a
// direction: the Fréchet derivative L(a, e) then rides through the same
// recurrence into ws.l (see Frechet). Nothing of the exponential reads e,
// so ws.b is bit-for-bit the same with or without it.
//
//chanmod:noalloc
func (ws *ExpmWS) scaleSquare(a, e *Dense) error {
	n := a.Rows()
	nrm := a.NormInf()
	if math.IsNaN(nrm) || math.IsInf(nrm, 0) {
		return fmt.Errorf("mat: Expm of matrix with non-finite norm %g", nrm)
	}
	s := 0
	if nrm > theta13 {
		s = int(math.Ceil(math.Log2(nrm / theta13)))
	}
	scale := math.Ldexp(1, -s)

	ws.b = ReshapeDense(ws.b, n, n)
	for i, v := range a.data {
		ws.b.data[i] = v * scale
	}
	b := ws.b
	ws.a2 = MulInto(ws.a2, b, b)
	ws.a4 = MulInto(ws.a4, ws.a2, ws.a2)
	ws.a6 = MulInto(ws.a6, ws.a2, ws.a4)
	c := &padeCoeffs

	// u = B·w with w = A6·w1 + w2, w1 = c13·A6 + c11·A4 + c9·A2 and
	// w2 = c7·A6 + c5·A4 + c3·A2 + c1·I (the odd half).
	ws.w1 = ReshapeDense(ws.w1, n, n)
	for i := range ws.w1.data {
		ws.w1.data[i] = c[13]*ws.a6.data[i] + c[11]*ws.a4.data[i] + c[9]*ws.a2.data[i]
	}
	ws.w = MulInto(ws.w, ws.a6, ws.w1)
	for i := range ws.w.data {
		ws.w.data[i] += c[7]*ws.a6.data[i] + c[5]*ws.a4.data[i] + c[3]*ws.a2.data[i]
	}
	for i := 0; i < n; i++ {
		ws.w.data[i*n+i] += c[1]
	}
	ws.u = MulInto(ws.u, b, ws.w)

	// v = A6·z1 + z2 with z1 = c12·A6 + c10·A4 + c8·A2 and
	// z2 = c6·A6 + c4·A4 + c2·A2 + c0·I (the even half).
	ws.z1 = ReshapeDense(ws.z1, n, n)
	for i := range ws.z1.data {
		ws.z1.data[i] = c[12]*ws.a6.data[i] + c[10]*ws.a4.data[i] + c[8]*ws.a2.data[i]
	}
	ws.v = MulInto(ws.v, ws.a6, ws.z1)
	for i := range ws.v.data {
		ws.v.data[i] += c[6]*ws.a6.data[i] + c[4]*ws.a4.data[i] + c[2]*ws.a2.data[i]
	}
	for i := 0; i < n; i++ {
		ws.v.data[i*n+i] += c[0]
	}
	if e != nil {
		ws.padeDerivative(e, scale)
	}

	// Solve (V−U)·R = (V+U); V−U is provably nonsingular for scaled norms
	// below theta13. Reuse ws.w for V−U, ws.v for V+U and b for R (the
	// scaled input is no longer needed).
	for i := range ws.w.data {
		ws.w.data[i] = ws.v.data[i] - ws.u.data[i]
		ws.v.data[i] += ws.u.data[i]
	}
	if err := ws.lu.Refactorize(ws.w); err != nil {
		return fmt.Errorf("mat: Expm Padé solve: %w", err)
	}
	if err := ws.solveCols(b, ws.v); err != nil {
		return err
	}
	if e != nil {
		if err := ws.solveDerivative(); err != nil {
			return err
		}
	}
	f, w := b, ws.w // f holds the Padé approximant, then the squarings
	for k := 0; k < s; k++ {
		if e != nil {
			// L ← R·L + L·R ahead of R ← R².
			ws.lt = ws.mulSum(ws.lt, f, ws.l, ws.l, f)
			ws.l, ws.lt = ws.lt, ws.l
		}
		w = MulInto(w, f, f)
		f, w = w, f
	}
	// Write both pointers back so the workspace fields stay distinct
	// matrices after an odd number of swaps.
	ws.b, ws.w = f, w
	return nil
}

// solveCols writes the solution X of (V−U)·X = rhs into dst, column by
// column, with the LU factors held in ws.lu.
//
//chanmod:noalloc
func (ws *ExpmWS) solveCols(dst, rhs *Dense) error {
	n := rhs.Rows()
	if cap(ws.col) < n {
		ws.col = make(Vec, n)
		ws.sol = make(Vec, n)
		ws.work = make(Vec, n)
	}
	col, sol, work := ws.col[:n], ws.sol[:n], ws.work[:n]
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			col[i] = rhs.data[i*n+j]
		}
		if _, err := ws.lu.SolveWS(sol, col, work); err != nil {
			return fmt.Errorf("mat: Expm Padé solve: %w", err)
		}
		for i := 0; i < n; i++ {
			dst.data[i*n+j] = sol[i]
		}
	}
	return nil
}

// padeDerivative writes the derivatives of the Padé halves U and V in the
// direction scale·e into ws.du and ws.dv. It runs after scaleSquare has
// formed A = ws.b, its even powers, w1, w and z1, and before the solve
// overwrites them.
//
//chanmod:noalloc
func (ws *ExpmWS) padeDerivative(e *Dense, scale float64) {
	n := e.Rows()
	ws.de = ReshapeDense(ws.de, n, n)
	for i, v := range e.data {
		ws.de.data[i] = v * scale
	}
	b, de := ws.b, ws.de
	ws.m2 = ws.mulSum(ws.m2, b, de, de, b)
	ws.m4 = ws.mulSum(ws.m4, ws.a2, ws.m2, ws.m2, ws.a2)
	ws.m6 = ws.mulSum(ws.m6, ws.a4, ws.m2, ws.m4, ws.a2)
	m2, m4, m6 := ws.m2.data, ws.m4.data, ws.m6.data
	c := &padeCoeffs

	// Lw = A6·Lw1 + M6·w1 + Lw2, Lu = A·Lw + E·w.
	ws.p = ReshapeDense(ws.p, n, n)
	p := ws.p.data
	for i := range p {
		p[i] = c[13]*m6[i] + c[11]*m4[i] + c[9]*m2[i]
	}
	ws.dw = ws.mulSum(ws.dw, ws.a6, ws.p, ws.m6, ws.w1)
	for i := range ws.dw.data {
		ws.dw.data[i] += c[7]*m6[i] + c[5]*m4[i] + c[3]*m2[i]
	}
	ws.du = ws.mulSum(ws.du, b, ws.dw, de, ws.w)

	// Lv = A6·Lz1 + M6·z1 + Lz2.
	for i := range p {
		p[i] = c[12]*m6[i] + c[10]*m4[i] + c[8]*m2[i]
	}
	ws.dv = ws.mulSum(ws.dv, ws.a6, ws.p, ws.m6, ws.z1)
	for i := range ws.dv.data {
		ws.dv.data[i] += c[6]*m6[i] + c[4]*m4[i] + c[2]*m2[i]
	}
}

// solveDerivative writes the derivative of the Padé approximant R = ws.b
// into ws.l, on the factors of V−U that produced R:
// (V−U)·L = Lu + Lv + (Lu−Lv)·R.
//
//chanmod:noalloc
func (ws *ExpmWS) solveDerivative() error {
	du, dv, diff := ws.du.data, ws.dv.data, ws.dw.data
	for i := range diff {
		diff[i] = du[i] - dv[i]
	}
	ws.t = MulInto(ws.t, ws.dw, ws.b)
	for i, v := range ws.t.data {
		du[i] += dv[i] + v
	}
	n := ws.b.Rows()
	ws.l = ReshapeDense(ws.l, n, n)
	return ws.solveCols(ws.l, ws.du)
}

// mulSum returns dst = a·b + c·d, reusing dst's storage; ws.t holds the
// second product.
//
//chanmod:noalloc
func (ws *ExpmWS) mulSum(dst, a, b, c, d *Dense) *Dense {
	dst = MulInto(dst, a, b)
	ws.t = MulInto(ws.t, c, d)
	for i, v := range ws.t.data {
		dst.data[i] += v
	}
	return dst
}
