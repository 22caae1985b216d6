// Adjoint sensitivities of the multiple-shooting solve.
//
// The solved unknowns u = [p; x_1; …; x_{m−1}] satisfy S·u = r, where both
// S and r are assembled from the per-interval transition maps (Φ_i, ψ_i).
// For a scalar objective J(u, θ) of the solution and a model parameter θ
// that enters through the transition maps,
//
//	dJ/dθ = ∂J/∂θ + λᵀ·(dr/dθ − dS/dθ·u),   Sᵀ·λ = ∂J/∂u,
//
// so one transposed solve with the staircase factorization already held by
// the workspace replaces a full re-solve per parameter. The methods below
// expose exactly the pieces a caller needs: the unknown layout
// (InterfaceState), the transposed solve (AdjointSolve) and the assembled
// directional term λᵀ·d(S·u − r)/dθ (GradientTerm). All of them read the
// state of the last successful SolveWS and are invalidated by the next
// call with the same workspace.
package bvp

import (
	"fmt"

	"repro/internal/mat"
)

// Intervals returns the number of shooting intervals of the last solve.
func (ws *Workspace) Intervals() int { return ws.m }

// InterfaceState returns the state at the start of shooting interval i of
// the last solve: the reconstructed full initial state for i = 0, the
// solved interface unknowns otherwise. The slice is a view into workspace
// storage — valid until the next SolveWS.
func (ws *Workspace) InterfaceState(i int) mat.Vec {
	if i == 0 {
		return ws.x0[:ws.dim]
	}
	off := ws.nU + (i-1)*ws.dim
	return ws.u[off : off+ws.dim]
}

// AdjointSolve solves Sᵀ·λ = ∂J/∂u for the shooting system of the last
// solve. gx[i] must hold ∂J/∂x(z_i) — the gradient of the objective with
// respect to interval i's initial state, holding the other intervals fixed
// — for i = 0 … m−1. The i = 0 entry is projected onto the unknown inlet
// parameters through the X0Modes of the solved problem. The returned
// vector is workspace-owned, and a warm workspace allocates nothing.
//
//chanmod:noalloc
func (ws *Workspace) AdjointSolve(gx []mat.Vec) (mat.Vec, error) {
	if !ws.solved {
		return nil, fmt.Errorf("bvp: AdjointSolve before a successful SolveWS")
	}
	if len(gx) != ws.m {
		return nil, fmt.Errorf("bvp: AdjointSolve wants %d interval gradients, got %d", ws.m, len(gx))
	}
	nUnk := ws.nU + (ws.m-1)*ws.dim
	ws.grhs = growVec(ws.grhs, nUnk)
	g := ws.grhs
	for k := 0; k < ws.nU; k++ {
		g[k] = ws.modes[k].Dot(gx[0])
	}
	for i := 1; i < ws.m; i++ {
		copy(g[ws.nU+(i-1)*ws.dim:], gx[i][:ws.dim])
	}
	ws.lam = growVec(ws.lam, nUnk)
	ws.sys.solveTransposed(ws.lam, g)
	return ws.lam, nil
}

// GradientTerm returns λᵀ·d(S·u − r)/dθ for the last solve, given the
// derivatives of each interval's transition map with respect to θ. A nil
// dPhi[i] or dPsi[i] entry means that interval's map does not depend on θ.
// The assembled rows mirror SolveWS exactly: interval-0 continuity against
// the full initial state, interior continuity against the solved interface
// states, then the terminal condition rows.
func (ws *Workspace) GradientTerm(lambda mat.Vec, dPhi []*mat.Dense, dPsi []mat.Vec) float64 {
	rowTerm := func(i, r int) float64 {
		var v float64
		if dPhi[i] != nil {
			v = dPhi[i].Row(r).Dot(ws.InterfaceState(i))
		}
		if dPsi[i] != nil {
			v += dPsi[i][r]
		}
		return v
	}
	var total float64
	if ws.m == 1 {
		for j, idx := range ws.termIdx {
			if dPhi[0] == nil && dPsi[0] == nil {
				break
			}
			total += lambda[j] * rowTerm(0, idx)
		}
		return total
	}
	row := 0
	for i := 0; i < ws.m-1; i++ {
		if dPhi[i] != nil || dPsi[i] != nil {
			for r := 0; r < ws.dim; r++ {
				total += lambda[row+r] * rowTerm(i, r)
			}
		}
		row += ws.dim
	}
	last := ws.m - 1
	if dPhi[last] != nil || dPsi[last] != nil {
		for j, idx := range ws.termIdx {
			total += lambda[row+j] * rowTerm(last, idx)
		}
	}
	return total
}
