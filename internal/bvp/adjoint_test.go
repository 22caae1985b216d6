package bvp

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// toyProblem builds a small stiff-ish linear BVP whose coefficients depend
// on a scalar parameter θ: x' = [[0,1],[−θ,−0.3]]·x + [0.5, θ/2], with the
// second initial component unknown and x_1(L) = 0 terminal.
func toyProblem(theta float64) *Problem {
	sys := &linearODE{
		dim: 2,
		coeffs: func(a *mat.Dense, b mat.Vec, z float64) {
			a.Set(0, 0, 0)
			a.Set(0, 1, 1)
			a.Set(1, 0, -theta)
			a.Set(1, 1, -0.3)
			b[0] = 0.5
			b[1] = theta / 2
		},
	}
	p := rk4Problem(sys, 1, 400, 4)
	p.X0Base = mat.Vec{0.7, 0}
	p.X0Modes = []mat.Vec{{0, 1}}
	p.TerminalZero = []int{1}
	return p
}

// toyObjective is a fixed linear functional of the interface states,
// J = Σ_i w_i · x(z_i); its per-interval gradients are the weights.
func toyWeights(m, dim int) []mat.Vec {
	gx := make([]mat.Vec, m)
	for i := range gx {
		gx[i] = make(mat.Vec, dim)
		for r := range gx[i] {
			gx[i][r] = 1 + 0.25*float64(i) - 0.6*float64(r)
		}
	}
	return gx
}

func toyJ(ws *Workspace, gx []mat.Vec) float64 {
	var j float64
	for i := 0; i < ws.Intervals(); i++ {
		j += gx[i].Dot(ws.InterfaceState(i))
	}
	return j
}

// toyTransitions returns the per-interval maps of the problem at θ, for
// finite-differencing dΦ/dθ.
func toyTransitions(t *testing.T, theta float64) ([]*mat.Dense, []mat.Vec) {
	t.Helper()
	p := toyProblem(theta)
	m := len(p.Interfaces) - 1
	phis := make([]*mat.Dense, m)
	psis := make([]mat.Vec, m)
	for i := 0; i < m; i++ {
		phi, psi, err := p.Transition(p.Interfaces[i], p.Interfaces[i+1])
		if err != nil {
			t.Fatal(err)
		}
		phis[i], psis[i] = phi, psi
	}
	return phis, psis
}

// The adjoint gradient of a linear functional of the interface states must
// match central finite differences of the full solve.
func TestAdjointGradientMatchesFD(t *testing.T) {
	const theta = 4.0
	ws := &Workspace{}
	p := toyProblem(theta)
	if _, err := SolveWS(p, ws); err != nil {
		t.Fatal(err)
	}
	m := ws.Intervals()
	gx := toyWeights(m, p.Dim)

	lam, err := ws.AdjointSolve(gx)
	if err != nil {
		t.Fatal(err)
	}

	const h = 1e-5
	phiP, psiP := toyTransitions(t, theta+h)
	phiM, psiM := toyTransitions(t, theta-h)
	dPhi := make([]*mat.Dense, m)
	dPsi := make([]mat.Vec, m)
	for i := 0; i < m; i++ {
		d := mat.NewDense(p.Dim, p.Dim)
		for r := 0; r < p.Dim; r++ {
			for c := 0; c < p.Dim; c++ {
				d.Set(r, c, (phiP[i].At(r, c)-phiM[i].At(r, c))/(2*h))
			}
		}
		dPhi[i] = d
		dv := make(mat.Vec, p.Dim)
		for r := 0; r < p.Dim; r++ {
			dv[r] = (psiP[i][r] - psiM[i][r]) / (2 * h)
		}
		dPsi[i] = dv
	}
	// J has no explicit θ dependence, so dJ/dθ = −λᵀ·d(S·u − r)/dθ.
	got := -ws.GradientTerm(lam, dPhi, dPsi)

	wsP := &Workspace{}
	if _, err := SolveWS(toyProblem(theta+h), wsP); err != nil {
		t.Fatal(err)
	}
	jp := toyJ(wsP, gx)
	wsM := &Workspace{}
	if _, err := SolveWS(toyProblem(theta-h), wsM); err != nil {
		t.Fatal(err)
	}
	jm := toyJ(wsM, gx)
	want := (jp - jm) / (2 * h)

	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("adjoint dJ/dθ = %.10g, FD = %.10g", got, want)
	}
}

// Sparse GradientTerm inputs (nil entries) must equal a dense call with
// explicit zeros, and AdjointSolve must reject use before a solve.
func TestAdjointSparseAndGuards(t *testing.T) {
	var fresh Workspace
	if _, err := fresh.AdjointSolve(nil); err == nil {
		t.Fatal("expected error for AdjointSolve before SolveWS")
	}

	ws := &Workspace{}
	p := toyProblem(2.5)
	if _, err := SolveWS(p, ws); err != nil {
		t.Fatal(err)
	}
	m := ws.Intervals()
	gx := toyWeights(m, p.Dim)
	lam, err := ws.AdjointSolve(gx)
	if err != nil {
		t.Fatal(err)
	}
	dPhi := make([]*mat.Dense, m)
	dPsi := make([]mat.Vec, m)
	only := 1 // θ affecting just interval 1
	dPhi[only] = mat.NewDenseFrom([][]float64{{0.1, -0.2}, {0.3, 0.05}})
	dPsi[only] = mat.Vec{0.4, -0.1}
	sparse := ws.GradientTerm(lam, dPhi, dPsi)

	zero := mat.NewDense(p.Dim, p.Dim)
	zv := make(mat.Vec, p.Dim)
	densePhi := make([]*mat.Dense, m)
	densePsi := make([]mat.Vec, m)
	for i := range densePhi {
		densePhi[i], densePsi[i] = zero, zv
	}
	densePhi[only], densePsi[only] = dPhi[only], dPsi[only]
	dense := ws.GradientTerm(lam, densePhi, densePsi)
	if sparse != dense {
		t.Fatalf("sparse GradientTerm %.12g != dense %.12g", sparse, dense)
	}
}
