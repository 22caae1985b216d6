// Package bvp solves the linear two-point boundary-value problems produced
// by the compact thermal model of the paper:
//
//	dx/dz = A(z)·x + b(z),   z ∈ [0, d]
//
// with boundary conditions split between the two ends: the initial state is
// known up to a few parameters (the inlet silicon temperatures) and a
// subset of the state must vanish at z = d (the adiabatic heat-flow
// conditions q(d) = 0 of the paper's Eq. 5).
//
// The thermal model is stiff in the BVP sense: boundary layers decay over
// λ = sqrt(ĝl/ĝv) ≈ 0.2–0.6 mm while the channel is 10 mm long, so simple
// shooting amplifies initial perturbations by up to e^(d/λ) ≈ e^50 and the
// terminal-condition matrix is numerically singular. The solver therefore
// uses MULTIPLE SHOOTING: the domain is split into m intervals at the
// caller's interface grid, the full state at each interior interface joins
// the unknowns, and continuity plus boundary conditions form one linear
// system. Because the ODE is linear, each interval is an affine map
// x(z_{i+1}) = Φ_i·x(z_i) + ψ_i, which the caller supplies (the compact
// model computes it exactly from a matrix exponential), and no Newton
// iteration is needed.
//
// The system is a staircase: each continuity row touches only the states
// at the two ends of its interval (the first interval also the inlet
// parameters), and the terminal rows only the last interface state. It is
// factored by partial-pivoting elimination over each row's column window
// (stair.go), which picks the pivots of a dense LU and performs its
// arithmetic on every entry that is not a structural zero, so solutions
// equal a dense mat.LU solve's under == at a cost linear in the number of
// intervals.
//
// The dense trajectory is reconstructed from the solved interface states
// by a caller-supplied Propagate function, one interval at a time, so that
// models with piecewise-constant coefficients (modulated channel widths,
// segmented heat fluxes) sample each smooth piece separately.
package bvp

import (
	"errors"
	"fmt"

	"repro/internal/mat"
)

// ErrUnsolvable reports a multiple-shooting system whose matrix is singular
// (physically: the boundary conditions do not determine the state).
var ErrUnsolvable = errors.New("bvp: shooting system is singular")

// PropagateFunc integrates the model ODE over one shooting interval [a, b]
// from the initial state x0 and returns the dense trajectory, whose first
// point is (a, x0) and last point lies at b. The solver copies what it
// needs from the returned trajectory before the next Propagate call, so
// implementations may reuse internal storage.
type PropagateFunc func(a, b float64, x0 mat.Vec) (*Trajectory, error)

// TransitionFunc supplies the transition map of one shooting interval
// [a, b]: x(b) = phi·x(a) + psi. The returned matrix and vector are
// borrowed — the solver reads them without modifying and does not retain
// them past the solve — so implementations may serve them from a cache.
// The map must be deterministic in (a, b), or determinism guarantees built
// on top of the solver break.
type TransitionFunc func(a, b float64) (phi *mat.Dense, psi mat.Vec, err error)

// Problem specifies a linear two-point BVP.
//
// The initial state is x(0) = X0Base + Σ_k p_k · X0Modes[k], where p are the
// unknown shooting parameters. The terminal conditions demand
// x(Length)[TerminalZero[j]] = 0 for every j. The number of unknowns must
// equal the number of terminal conditions.
type Problem struct {
	// Dim is the state dimension.
	Dim int
	// Length is the domain size; the domain is [0, Length].
	Length float64
	// Propagate reconstructs the dense trajectory of one interval (see
	// PropagateFunc).
	Propagate PropagateFunc
	// X0Base is the known part of the initial state.
	X0Base mat.Vec
	// X0Modes are the directions multiplied by the unknown parameters.
	X0Modes []mat.Vec
	// TerminalZero lists state indices that must vanish at z = Length.
	TerminalZero []int
	// Interfaces is the interface grid: an ascending sequence starting at 0
	// and ending at Length, one shooting interval per consecutive pair; a
	// single interval is classic single shooting (only safe for non-stiff
	// systems). Callers with piecewise-constant coefficients align
	// interfaces with the smooth pieces so that every interval's
	// transition map depends only on that piece's coefficients (the
	// memoization unit of compact.Evaluator). The slice is borrowed, not
	// copied.
	Interfaces []float64
	// Transition supplies the interval transition maps (see
	// TransitionFunc).
	Transition TransitionFunc
}

// Workspace carries the reusable scratch of a shooting solve: the
// staircase system factored in place and the reconstructed trajectory. A
// zero value is ready to use. Reusing one workspace across repeated
// same-shaped solves eliminates nearly all solver allocations.
// A workspace must not be shared between concurrent solves, and the
// Trajectory of a returned Solution points into the workspace — it is
// invalidated by the next SolveWS call with the same workspace.
type Workspace struct {
	phis   []*mat.Dense // per-interval transition matrices (borrowed)
	psis   []mat.Vec    // per-interval particular terms (borrowed)
	sys    staircase    // multiple-shooting system, factored in place
	rhs    mat.Vec
	u      mat.Vec // solved unknowns
	m0base mat.Vec
	x0     mat.Vec    // reconstructed initial state
	traj   Trajectory // stitched reconstruction trajectory

	// Snapshot of the last successful SolveWS, consumed by the adjoint
	// methods (see adjoint.go). modes and termIdx are borrowed from the
	// Problem and stay valid as long as the caller keeps the Problem alive.
	solved  bool
	dim, nU int
	m       int
	modes   []mat.Vec
	termIdx []int
	lam     mat.Vec // adjoint solution scratch
	grhs    mat.Vec // adjoint rhs scratch
}

func growVec(v mat.Vec, n int) mat.Vec {
	if cap(v) < n {
		return make(mat.Vec, n)
	}
	return v[:n]
}

// Solution carries the resolved trajectory and the shooting parameters.
type Solution struct {
	// Params are the resolved inlet parameters p.
	Params mat.Vec
	// Trajectory is the dense resolved state trajectory over [0, Length].
	Trajectory *Trajectory
	// TerminalResidual is the max |x(Length)[j]| over the terminal
	// conditions, a direct quality measure of the solve.
	TerminalResidual float64
}

// Solve resolves the BVP by multiple shooting.
func Solve(p *Problem) (*Solution, error) {
	return SolveWS(p, nil)
}

// SolveWS is Solve with a reusable workspace. A nil ws allocates a local
// one (equivalent to Solve). See Workspace for the aliasing contract.
//
//chanmod:noalloc
func SolveWS(p *Problem, ws *Workspace) (*Solution, error) {
	if ws == nil {
		ws = &Workspace{}
	}
	ws.solved = false
	if err := validate(p); err != nil {
		return nil, err
	}
	dim := p.Dim
	nU := len(p.X0Modes)

	// Interface positions 0 = z_0 < z_1 < ... < z_m = Length, and per
	// interval i the borrowed transition x(z_{i+1}) = M_i·x(z_i) + c_i.
	zs := p.Interfaces
	m := len(zs) - 1
	if cap(ws.phis) < m {
		ws.phis = make([]*mat.Dense, m)
		ws.psis = make([]mat.Vec, m)
	}
	trans := ws.phis[:m]
	parts := ws.psis[:m]
	for i := 0; i < m; i++ {
		phi, psi, err := p.Transition(zs[i], zs[i+1])
		if err != nil {
			return nil, fmt.Errorf("bvp: transition, interval %d: %w", i, err)
		}
		trans[i], parts[i] = phi, psi
	}

	// Unknowns u = [p (nU); x_1 ... x_{m-1} (dim each)]. Each row is
	// assembled over its window of columns: the inlet parameters and x_1
	// up to the row's −1 for interval 0, x_i up to the −1 in x_{i+1} for
	// interval i, x_{m-1} for the terminal rows. Entries are added onto
	// the zeroed window, as onto a zeroed dense matrix.
	nUnk := nU + (m-1)*dim
	sys := &ws.sys
	sys.reset(nUnk, 2*dim)
	ws.rhs = growVec(ws.rhs, nUnk)
	rhs := ws.rhs
	xOff := func(i int) int { return nU + (i-1)*dim } // offset of x_i, i>=1

	row := 0
	// Continuity of interval 0: M_0(X0Base + Modes·p) + c_0 = x_1
	// (or terminal rows directly when m == 1).
	ws.m0base = growVec(ws.m0base, dim)
	m0base := trans[0].MulVec(ws.m0base, p.X0Base)
	if m > 1 {
		for r := 0; r < dim; r++ {
			w := sys.addRow(0, xOff(1)+r+1)
			phi := trans[0].Row(r)
			for k := 0; k < nU; k++ {
				// column p_k: (M_0·mode_k)[r]
				var s float64
				for c := 0; c < dim; c++ {
					s += phi[c] * p.X0Modes[k][c]
				}
				w[k] = s
			}
			w[xOff(1)+r] = -1
			rhs[row] = -m0base[r] - parts[0][r]
			row++
		}
		// Continuity of intervals 1..m-2: M_i·x_i − x_{i+1} = −c_i.
		for i := 1; i < m-1; i++ {
			lo := xOff(i)
			for r := 0; r < dim; r++ {
				w := sys.addRow(lo, xOff(i+1)+r+1)
				for c, v := range trans[i].Row(r)[:dim] {
					w[c] += v
				}
				w[xOff(i+1)+r-lo] = -1
				rhs[row] = -parts[i][r]
				row++
			}
		}
		// Terminal rows: (M_{m-1}·x_{m-1} + c_{m-1})[idx] = 0.
		lo := xOff(m - 1)
		for _, idx := range p.TerminalZero {
			w := sys.addRow(lo, lo+dim)
			for c, v := range trans[m-1].Row(idx)[:dim] {
				w[c] += v
			}
			rhs[row] = -parts[m-1][idx]
			row++
		}
	} else {
		// Single interval: terminal conditions directly on the parameters.
		for _, idx := range p.TerminalZero {
			w := sys.addRow(0, nU)
			phi := trans[0].Row(idx)
			for k := 0; k < nU; k++ {
				var s float64
				for c := 0; c < dim; c++ {
					s += phi[c] * p.X0Modes[k][c]
				}
				w[k] = s
			}
			rhs[row] = -m0base[idx] - parts[0][idx]
			row++
		}
	}
	if row != nUnk {
		return nil, fmt.Errorf("bvp: internal row count %d != %d", row, nUnk)
	}

	if err := sys.factor(); err != nil {
		return nil, err
	}
	ws.u = growVec(ws.u, nUnk)
	u := ws.u
	sys.solve(u, rhs)

	params := u[:nU].Clone()

	// Reconstruct the trajectory interval by interval, deep-copying each
	// interval's states into the workspace-owned stitched trajectory so
	// propagators are free to reuse their internal storage between calls.
	ws.x0 = growVec(ws.x0, dim)
	copy(ws.x0, p.X0Base)
	for k := 0; k < nU; k++ {
		ws.x0.AddScaled(params[k], p.X0Modes[k])
	}
	full := &ws.traj
	full.Reset()
	x := ws.x0
	for i := 0; i < m; i++ {
		if i > 0 {
			// Use the solved interface state (more accurate than chaining,
			// and exactly what the linear system enforced).
			x = u[xOff(i) : xOff(i)+dim]
		}
		sol, err := p.Propagate(zs[i], zs[i+1], x)
		if err != nil {
			return nil, fmt.Errorf("bvp: reconstruction, interval %d: %w", i, err)
		}
		full.AppendCopied(sol, i > 0)
	}

	ws.solved = true
	ws.dim, ws.nU, ws.m = dim, nU, m
	ws.modes, ws.termIdx = p.X0Modes, p.TerminalZero

	res := 0.0
	fin := full.Final()
	for _, idx := range p.TerminalZero {
		a := fin[idx]
		if a < 0 {
			a = -a
		}
		if a > res {
			res = a
		}
	}
	return &Solution{Params: params, Trajectory: full, TerminalResidual: res}, nil
}

func validate(p *Problem) error {
	if p.Propagate == nil {
		return fmt.Errorf("bvp: nil propagator")
	}
	if p.Transition == nil {
		return fmt.Errorf("bvp: nil transition")
	}
	if p.Dim <= 0 {
		return fmt.Errorf("bvp: non-positive dimension %d", p.Dim)
	}
	if !(p.Length > 0) {
		return fmt.Errorf("bvp: non-positive length %g", p.Length)
	}
	zs := p.Interfaces
	if len(zs) < 2 {
		return fmt.Errorf("bvp: interface grid needs >= 2 points, got %d", len(zs))
	}
	if zs[0] != 0 || zs[len(zs)-1] != p.Length {
		return fmt.Errorf("bvp: interface grid must span [0, %g], got [%g, %g]",
			p.Length, zs[0], zs[len(zs)-1])
	}
	for i := 1; i < len(zs); i++ {
		if !(zs[i] > zs[i-1]) {
			return fmt.Errorf("bvp: interface grid not strictly increasing at %d", i)
		}
	}
	if len(p.X0Base) != p.Dim {
		return fmt.Errorf("bvp: X0Base length %d, want %d", len(p.X0Base), p.Dim)
	}
	if len(p.X0Modes) != len(p.TerminalZero) {
		return fmt.Errorf("bvp: %d unknowns vs %d terminal conditions",
			len(p.X0Modes), len(p.TerminalZero))
	}
	if len(p.X0Modes) == 0 {
		return fmt.Errorf("bvp: no unknowns; nothing to solve")
	}
	for k, mode := range p.X0Modes {
		if len(mode) != p.Dim {
			return fmt.Errorf("bvp: X0Modes[%d] length %d, want %d", k, len(mode), p.Dim)
		}
	}
	for j, idx := range p.TerminalZero {
		if idx < 0 || idx >= p.Dim {
			return fmt.Errorf("bvp: terminal index %d outside state of dim %d", idx, p.Dim)
		}
		for _, prev := range p.TerminalZero[:j] {
			if prev == idx {
				return fmt.Errorf("bvp: terminal index %d listed twice", idx)
			}
		}
	}
	return nil
}
