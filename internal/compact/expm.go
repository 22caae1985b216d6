package compact

import (
	"errors"
	"fmt"

	"repro/internal/bvp"
	"repro/internal/mat"
)

// Closed-form piece propagation: every piece map of the compact model.
//
// Over one smooth piece [a, b] the model ODE has constant coefficients and
// a forcing that is at most affine in z (the eliminated form's cumulative
// heat Qin(z) enters the coolant feedback linearly):
//
//	x' = A·x + b0 + b1·(z−a).
//
// Embedding the forcing in two extra states s = z−a (s' = u) and u ≡ 1
// (u' = 0) makes the piece homogeneous with the augmented generator
//
//	Ã = [ A   b1  b0 ]
//	    [ 0   0   1  ]
//	    [ 0   0   0  ],
//
// so e^{Ã·Δz} is the exact piece map: its top-left block is Φ = e^{A·Δz}
// (block triangularity) and the top of its last column is ψ — equal to
// Δz·φ₁(AΔz)·b0 + Δz²·φ₂(AΔz)·b1 without ever forming the φ functions.
// Dense reconstruction applies the sub-step map e^{Ã·h} as a recurrence on
// a uniform grid of the piece's dense samples (expmFinish, propagateExpm),
// and the adjoint gradient differentiates the same exponentials (see
// gradient.go).

// buildAug4 writes the augmented generator of one eliminated-form piece
// into e.aug. A and b0 are extracted by evaluating the rhs4 closures (on
// basis vectors and the zero state), the transcription of the piece ODE;
// only b1 — the z-slope of the coolant feedback — needs a formula.
func (e *Evaluator) buildAug4(ent *pieceEntry, a float64) {
	const dim = elimDim
	adim := dim + 2
	e.aug = mat.ReshapeDense(e.aug, adim, adim)
	tcin := e.params.InletTemp
	hom := rhs4(ent, a, tcin, true)
	forced := rhs4(ent, a, tcin, false)
	e.basis = growVec(e.basis, dim)
	e.col = growVec(e.col, dim)
	for j := 0; j < dim; j++ {
		e.basis.Fill(0)
		e.basis[j] = 1
		hom(e.col, a, e.basis)
		for r := 0; r < dim; r++ {
			e.aug.Set(r, j, e.col[r])
		}
	}
	e.basis.Fill(0)
	forced(e.col, a, e.basis)
	for r := 0; r < dim; r++ {
		e.aug.Set(r, dim+1, e.col[r])
	}
	// d(rhs)/dz at fixed state: Qin(z) = QinA + (f1+f2)·(z−a) feeds both
	// heat-flow equations through the coolant temperature.
	slope := ent.c4.GV * (ent.f1 + ent.f2) / ent.c4.CvV
	e.aug.Set(2, dim, slope)
	e.aug.Set(3, dim, slope)
	e.aug.Set(dim, dim+1, 1)
}

// buildAug5 writes the augmented generator of one coupled 5-state piece
// into e.aug. The linear part comes from evaluating the shared derivative
// kernel on basis vectors with zeroed fluxes, the constant forcing from
// evaluating it at the zero state; the forcing has no z dependence (b1 = 0).
func (e *Evaluator) buildAug5(ent *pieceEntry, n int) {
	dim := statePerChannel * n
	adim := dim + 2
	e.aug = mat.ReshapeDense(e.aug, adim, adim)
	if cap(e.zeroFx) < n {
		e.zeroFx = make([]float64, n)
	}
	pcHom := pieceCoeffs{c: ent.pc.c, fluxTop: e.zeroFx[:n], fluxBottom: e.zeroFx[:n]}
	e.basis = growVec(e.basis, dim)
	e.col = growVec(e.col, dim)
	for j := 0; j < dim; j++ {
		e.basis.Fill(0)
		e.basis[j] = 1
		e.model.derivative(e.col, e.basis, &pcHom)
		for r := 0; r < dim; r++ {
			e.aug.Set(r, j, e.col[r])
		}
	}
	e.basis.Fill(0)
	e.model.derivative(e.col, e.basis, &ent.pc)
	for r := 0; r < dim; r++ {
		e.aug.Set(r, dim+1, e.col[r])
	}
	e.aug.Set(dim, dim+1, 1)
}

// expmFinish computes the exact piece maps from the augmented generator in
// e.aug: the full-interval exponential yields (Φ, ψ), the sub-step
// exponential the dense-reconstruction recurrence map. The generator is
// retained in the entry for the gradient path's Fréchet directions.
func (e *Evaluator) expmFinish(ent *pieceEntry, a, b float64, dim, steps int) error {
	adim := dim + 2
	ent.atilde = e.aug.Clone()
	ent.steps = steps

	e.augS = mat.ReshapeDense(e.augS, adim, adim)
	scaleDense(e.augS, e.aug, b-a)
	full, err := e.ews.Expm(e.augE, e.augS)
	if err != nil {
		return err
	}
	e.augE = full
	ent.phi = mat.NewDense(dim, dim)
	ent.psi = make(mat.Vec, dim)
	for r := 0; r < dim; r++ {
		copy(ent.phi.Row(r), full.Row(r)[:dim])
		ent.psi[r] = full.At(r, dim+1)
	}

	scaleDense(e.augS, e.aug, (b-a)/float64(steps))
	ent.phiStep, err = e.ews.Expm(nil, e.augS)
	return err
}

// scaleDense writes dst = s·src for same-shaped matrices.
func scaleDense(dst, src *mat.Dense, s float64) {
	for r := 0; r < src.Rows(); r++ {
		d, o := dst.Row(r), src.Row(r)
		for i, v := range o {
			d[i] = s * v
		}
	}
}

// ErrNonFinite reports a NaN or infinity in the state during dense
// reconstruction, which usually means the model is ill-posed for the
// given inputs.
var ErrNonFinite = errors.New("compact: non-finite state encountered")

// propagateExpm densely reconstructs one piece-aligned shooting interval
// by applying the memoized augmented sub-step map as a recurrence over the
// piece's dense samples (uniform steps, endpoint pinned). The returned
// trajectory is evaluator-owned and valid until the next propagation.
func (e *Evaluator) propagateExpm(ent *pieceEntry, a, b float64, x0 mat.Vec, dim int) (*bvp.Trajectory, error) {
	if len(x0) != dim {
		return nil, fmt.Errorf("compact: state length %d, want %d", len(x0), dim)
	}
	n := ent.steps
	h := (b - a) / float64(n)
	adim := dim + 2
	e.y = growVec(e.y, adim)
	e.y2 = growVec(e.y2, adim)
	y, y2 := e.y, e.y2
	copy(y[:dim], x0)
	y[dim] = 0
	y[dim+1] = 1
	sol := &e.seg
	sol.Reset()
	sol.Append(a, y[:dim])
	for i := 0; i < n; i++ {
		ent.phiStep.MulVec(y2, y)
		y, y2 = y2, y
		if !y[:dim].IsFinite() {
			return nil, fmt.Errorf("compact: piece [%g, %g]: %w at step %d", a, b, ErrNonFinite, i)
		}
		sol.Append(a+float64(i+1)*h, y[:dim])
	}
	sol.Z[n] = b
	return sol, nil
}
