package mat

import (
	"fmt"
	"math"
)

// Padé 13/13 numerator coefficients of the exponential (Higham 2005). The
// denominator shares them with alternating signs, so U collects the odd
// terms and V the even ones.
var padeCoeffs = [14]float64{
	64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
	129060195264000, 10559470521600, 670442572800, 33522128640,
	1323241920, 40840800, 960960, 16380, 182, 1,
}

// theta13 is the largest scaled norm for which the Padé 13 approximant is
// backward stable to unit roundoff (Higham 2005, Table 2.3).
const theta13 = 5.371920351148152

// ExpmWS carries the scratch of repeated matrix exponentials so hot loops
// (per-piece transition maps) allocate only on the first call or when the
// dimension grows.
type ExpmWS struct {
	b, a2, a4, a6  *Dense
	w1, z1         *Dense // odd and even Padé polynomials in A6
	w, u, v        *Dense
	lu             LU
	col, sol, work Vec
	// Fréchet derivative scratch (see Frechet): the scaled direction, the
	// derivatives of A2, A4, A6, w, u and v, and the derivative L with
	// its squaring partner.
	de, m2, m4, m6 *Dense
	dw, du, dv     *Dense
	l, lt          *Dense
	p, t           *Dense // polynomial and product temporaries
}

// Expm computes dst = e^a for square a by scaling-and-squaring with a
// Padé 13 approximant. dst may be nil (allocates) but must not alias a.
// The input is not modified. Deterministic: identical inputs produce
// bit-identical results regardless of workspace reuse.
//
//chanmod:noalloc
func (ws *ExpmWS) Expm(dst *Dense, a *Dense) (*Dense, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("%w: Expm of %dx%d matrix", ErrDimension, a.Rows(), a.Cols())
	}
	if err := ws.scaleSquare(a, nil); err != nil {
		return nil, err
	}
	out := ReshapeDense(dst, n, n)
	copy(out.data, ws.b.data)
	return out, nil
}

// Frechet computes the matrix exponential of a together with its Fréchet
// derivative L(a, e), the directional derivative of expm at a in
// direction e, by Al-Mohy & Higham's scaling-and-squaring recurrence
// (Computing the Fréchet derivative of the matrix exponential, SIAM J.
// Matrix Anal. Appl. 30(4), 2009, Algorithm 6.4) on n×n matrices:
//
//	M2 = A·E + E·A,  M4 = A2·M2 + M2·A2,  M6 = A4·M2 + M4·A2
//	Lw = A6·Lw1 + M6·w1 + Lw2,  Lu = A·Lw + E·w
//	Lv = A6·Lz1 + M6·z1 + Lz2
//	(V−U)·L = Lu + Lv + (Lu−Lv)·R,  then L ← R·L + L·R per squaring
//
// on the scaled A = 2^-s·a and E = 2^-s·e, where Lw1, Lw2, Lz1 and Lz2
// are Expm's polynomials w1, w2, z1 and z2 in A2, A4, A6 with M2, M4, M6
// in their place. The exponential half is Expm's own computation, so it
// equals Expm(a) bit for bit; the scaling power s comes from ‖a‖∞ alone,
// and since every derivative term is linear in e, the size of e never
// changes it. expDst and lDst may be nil (allocates); neither may alias a
// or e.
//
//chanmod:noalloc
func (ws *ExpmWS) Frechet(expDst, lDst *Dense, a, e *Dense) (*Dense, *Dense, error) {
	n := a.Rows()
	if a.Cols() != n || e.Rows() != n || e.Cols() != n {
		return nil, nil, fmt.Errorf("%w: Frechet of %dx%d matrix with %dx%d direction",
			ErrDimension, a.Rows(), a.Cols(), e.Rows(), e.Cols())
	}
	if nrm := e.NormInf(); math.IsNaN(nrm) || math.IsInf(nrm, 0) {
		return nil, nil, fmt.Errorf("mat: Frechet direction with non-finite norm %g", nrm)
	}
	if err := ws.scaleSquare(a, e); err != nil {
		return nil, nil, err
	}
	ex := ReshapeDense(expDst, n, n)
	copy(ex.data, ws.b.data)
	l := ReshapeDense(lDst, n, n)
	copy(l.data, ws.l.data)
	return ex, l, nil
}

// Expm returns e^a in a new matrix. Convenience wrapper over ExpmWS for
// one-off uses; hot paths should hold a workspace.
func Expm(a *Dense) (*Dense, error) {
	var ws ExpmWS
	return ws.Expm(nil, a)
}

// ExpmFrechet returns e^a and the Fréchet derivative of expm at a in
// direction e. Convenience wrapper over ExpmWS.Frechet.
func ExpmFrechet(a, e *Dense) (*Dense, *Dense, error) {
	var ws ExpmWS
	return ws.Frechet(nil, nil, a, e)
}
