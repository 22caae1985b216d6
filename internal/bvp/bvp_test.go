package bvp

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/ode"
)

// Classic test problem: x” = -x with x(0) = 0 and x'(L) = 0. With state
// (x, v): v(L) = 0 and unknown v(0). Exact solution x = c·sin z, so
// v(L) = c·cos L = 0 for c free only when cos L = 0; otherwise c = 0.
// Instead use a forced version with a known closed form.
func TestForcedOscillatorBVP(t *testing.T) {
	// x'' + x = 1, x(0) = 0, x'(π/2) = 0.
	// General solution x = 1 + A cos z + B sin z. x(0)=0 → A = -1.
	// x' = -A sin z + B cos z; x'(π/2) = -A = 1 ≠ 0 unless... compute:
	// x'(π/2) = -A·1 + B·0 = -A → need A = 0, conflict with x(0)=0 → use
	// x(0)=0 fixed via base state and unknown x'(0)=B.
	// A = -1 fixed: x'(π/2) = -A sin(π/2) + B cos(π/2) = 1. Not solvable!
	// Choose L = π/4 instead: x'(π/4) = -A·(√2/2) + B·(√2/2) = 0 → B = A = -1.
	L := math.Pi / 4
	sys := &ode.LinearSystem{
		Dim: 2,
		Coeffs: func(a *mat.Dense, b mat.Vec, z float64) {
			a.Set(0, 1, 1)
			a.Set(1, 0, -1)
			b[1] = 1
		},
	}
	p := &Problem{
		Dim:          2,
		Length:       L,
		Propagate:    LinearPropagator(sys, L, 2000),
		X0Base:       mat.Vec{0, 0},     // x(0)=0, v(0)=0 + p·mode
		X0Modes:      []mat.Vec{{0, 1}}, // unknown initial slope
		TerminalZero: []int{1},          // v(L) = 0
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Params[0]-(-1)) > 1e-8 {
		t.Fatalf("B = %v, want -1", sol.Params[0])
	}
	// Check solution midpoint against closed form x = 1 - cos z - sin z.
	zm := L / 2
	want := 1 - math.Cos(zm) - math.Sin(zm)
	got := sol.Trajectory.At(zm)[0]
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("x(L/2) = %v, want %v", got, want)
	}
	if sol.TerminalResidual > 1e-9 {
		t.Fatalf("terminal residual %g", sol.TerminalResidual)
	}
}

// Heat-conduction-like problem: q' = s(z) (source), T' = -q/k with q(0)=0
// and q(L)=0 requires ∫s = 0. Unknown T(0) is irrelevant to q (pure offset)
// so instead check a coupled sink version: q' = s - g·T, T' = -q/k,
// boundary q(0) = q(L) = 0 with unknown T(0).
func TestConductionWithSinkBVP(t *testing.T) {
	const (
		k = 2.0
		g = 3.0
		s = 5.0
		L = 1.0
	)
	sys := &ode.LinearSystem{
		Dim: 2, // state (T, q)
		Coeffs: func(a *mat.Dense, b mat.Vec, z float64) {
			a.Set(0, 1, -1/k) // T' = -q/k
			a.Set(1, 0, -g)   // q' = s - g·T
			b[1] = s
		},
	}
	p := &Problem{
		Dim:          2,
		Length:       L,
		Propagate:    LinearPropagator(sys, L, 4000),
		X0Base:       mat.Vec{0, 0},
		X0Modes:      []mat.Vec{{1, 0}}, // unknown inlet temperature
		TerminalZero: []int{1},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// With both ends adiabatic and uniform source, the exact solution is the
	// uniform balance T = s/g, q = 0 everywhere.
	for i, x := range sol.Trajectory.X {
		if math.Abs(x[0]-s/g) > 1e-7 || math.Abs(x[1]) > 1e-7 {
			t.Fatalf("node %d: T=%v q=%v, want T=%v q=0", i, x[0], x[1], s/g)
		}
	}
}

func TestTwoUnknownsBVP(t *testing.T) {
	// Two decoupled copies of the sink problem with different sources; the
	// shooting must resolve both inlet temperatures independently.
	const (
		k  = 1.5
		g  = 2.0
		s1 = 4.0
		s2 = 10.0
	)
	sys := &ode.LinearSystem{
		Dim: 4, // (T1, q1, T2, q2)
		Coeffs: func(a *mat.Dense, b mat.Vec, z float64) {
			a.Set(0, 1, -1/k)
			a.Set(1, 0, -g)
			b[1] = s1
			a.Set(2, 3, -1/k)
			a.Set(3, 2, -g)
			b[3] = s2
		},
	}
	p := &Problem{
		Dim:          4,
		Length:       1,
		Propagate:    LinearPropagator(sys, 1, 2000),
		X0Base:       mat.NewVec(4),
		X0Modes:      []mat.Vec{{1, 0, 0, 0}, {0, 0, 1, 0}},
		TerminalZero: []int{1, 3},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Params[0]-s1/g) > 1e-7 {
		t.Errorf("T1(0) = %v, want %v", sol.Params[0], s1/g)
	}
	if math.Abs(sol.Params[1]-s2/g) > 1e-7 {
		t.Errorf("T2(0) = %v, want %v", sol.Params[1], s2/g)
	}
}

func TestSolveValidation(t *testing.T) {
	sys := &ode.LinearSystem{Dim: 2, Coeffs: func(a *mat.Dense, b mat.Vec, z float64) {}}
	base := &Problem{Dim: 2, Length: 1, Propagate: LinearPropagator(sys, 1, 100), X0Base: mat.Vec{0, 0},
		X0Modes: []mat.Vec{{1, 0}}, TerminalZero: []int{1}}

	bad := *base
	bad.Propagate = nil
	if _, err := Solve(&bad); err == nil {
		t.Error("nil propagator must fail")
	}
	bad = *base
	bad.Dim = 0
	if _, err := Solve(&bad); err == nil {
		t.Error("zero dim must fail")
	}
	bad = *base
	bad.X0Base = mat.Vec{0}
	if _, err := Solve(&bad); err == nil {
		t.Error("short X0Base must fail")
	}
	bad = *base
	bad.TerminalZero = []int{0, 1}
	if _, err := Solve(&bad); err == nil {
		t.Error("unknown/condition count mismatch must fail")
	}
	bad = *base
	bad.X0Modes = []mat.Vec{{1}}
	if _, err := Solve(&bad); err == nil {
		t.Error("short mode must fail")
	}
	bad = *base
	bad.TerminalZero = []int{7}
	if _, err := Solve(&bad); err == nil {
		t.Error("terminal index out of range must fail")
	}
	bad = *base
	bad.Length = 0
	if _, err := Solve(&bad); err == nil {
		t.Error("zero length must fail")
	}
	bad = *base
	bad.Intervals = -1
	if _, err := Solve(&bad); err == nil {
		t.Error("negative interval count must fail")
	}
	bad = *base
	bad.X0Modes = nil
	bad.TerminalZero = nil
	if _, err := Solve(&bad); err == nil {
		t.Error("no unknowns must fail")
	}
	// A repeated terminal index is rejected up front, naming the index,
	// not reported later as a singular shooting system.
	bad = *base
	bad.X0Modes = []mat.Vec{{1, 0}, {0, 1}}
	bad.TerminalZero = []int{1, 1}
	if _, err := Solve(&bad); err == nil || errors.Is(err, ErrUnsolvable) ||
		!strings.Contains(err.Error(), "terminal index 1 listed twice") {
		t.Errorf("duplicate terminal index: got %v", err)
	}
}

func TestSingularShooting(t *testing.T) {
	// The unknown direction does not influence the terminal condition:
	// states are decoupled, mode excites state 0, condition is on state 1.
	sys := &ode.LinearSystem{
		Dim: 2,
		Coeffs: func(a *mat.Dense, b mat.Vec, z float64) {
			a.Set(0, 0, -1)
			a.Set(1, 1, -1)
		},
	}
	p := &Problem{
		Dim:          2,
		Length:       1,
		Propagate:    LinearPropagator(sys, 1, 0),
		X0Base:       mat.Vec{0, 0},
		X0Modes:      []mat.Vec{{1, 0}},
		TerminalZero: []int{1},
	}
	_, err := Solve(p)
	if !errors.Is(err, ErrUnsolvable) {
		t.Fatalf("want ErrUnsolvable, got %v", err)
	}
}

// Property: for random stable coupled 2-state systems with a sink, the
// resolved trajectory satisfies both boundary conditions.
func TestBVPBoundaryResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		k := 0.5 + rng.Float64()*3
		g := 0.5 + rng.Float64()*3
		s := rng.NormFloat64() * 10
		sys := &ode.LinearSystem{
			Dim: 2,
			Coeffs: func(a *mat.Dense, b mat.Vec, z float64) {
				a.Set(0, 1, -1/k)
				a.Set(1, 0, -g)
				b[1] = s * (1 + 0.5*math.Sin(3*z))
			},
		}
		length := 0.5 + rng.Float64()
		p := &Problem{
			Dim:          2,
			Length:       length,
			Propagate:    LinearPropagator(sys, length, 1500),
			X0Base:       mat.Vec{0, 0},
			X0Modes:      []mat.Vec{{1, 0}},
			TerminalZero: []int{1},
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Trajectory.X[0][1] != 0 {
			t.Fatalf("trial %d: q(0) = %v", trial, sol.Trajectory.X[0][1])
		}
		if sol.TerminalResidual > 1e-6*(1+math.Abs(s)) {
			t.Fatalf("trial %d: terminal residual %g", trial, sol.TerminalResidual)
		}
	}
}

// sinkProblem builds the conduction-with-sink problem used by the
// workspace/interface tests.
func sinkProblem(steps int) *Problem {
	const (
		k = 2.0
		g = 3.0
		s = 5.0
		L = 1.0
	)
	sys := &ode.LinearSystem{
		Dim: 2,
		Coeffs: func(a *mat.Dense, b mat.Vec, z float64) {
			a.Set(0, 1, -1/k)
			a.Set(1, 0, -g)
			b[1] = s
		},
	}
	return &Problem{
		Dim:          2,
		Length:       L,
		Propagate:    LinearPropagator(sys, L, steps),
		X0Base:       mat.Vec{0, 0},
		X0Modes:      []mat.Vec{{1, 0}},
		TerminalZero: []int{1},
		Intervals:    8,
	}
}

func solutionsBitIdentical(t *testing.T, a, b *Solution) {
	t.Helper()
	if len(a.Params) != len(b.Params) || len(a.Trajectory.Z) != len(b.Trajectory.Z) {
		t.Fatalf("shape mismatch: params %d vs %d, grid %d vs %d",
			len(a.Params), len(b.Params), len(a.Trajectory.Z), len(b.Trajectory.Z))
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			t.Fatalf("params[%d] differ: %v vs %v", i, a.Params[i], b.Params[i])
		}
	}
	if a.TerminalResidual != b.TerminalResidual {
		t.Fatalf("residuals differ: %v vs %v", a.TerminalResidual, b.TerminalResidual)
	}
	for i := range a.Trajectory.Z {
		if a.Trajectory.Z[i] != b.Trajectory.Z[i] {
			t.Fatalf("Z[%d] differs", i)
		}
		for j := range a.Trajectory.X[i] {
			if a.Trajectory.X[i][j] != b.Trajectory.X[i][j] {
				t.Fatalf("X[%d][%d] differs: %v vs %v", i, j,
					a.Trajectory.X[i][j], b.Trajectory.X[i][j])
			}
		}
	}
}

// A reused workspace must not change results at all: repeated solves of the
// same problem (interleaved with a different-shaped one) stay bit-identical
// to a fresh Solve.
func TestSolveWSBitIdenticalToSolve(t *testing.T) {
	p := sinkProblem(400)
	fresh, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Deep-copy: the workspace trajectory is invalidated per solve.
	keep := &Solution{Params: fresh.Params.Clone(), Trajectory: &ode.Solution{},
		TerminalResidual: fresh.TerminalResidual}
	keep.Trajectory.AppendCopied(fresh.Trajectory, false)

	ws := &Workspace{}
	other := sinkProblem(400)
	other.Intervals = 3 // different system shape exercises workspace reshaping
	for rep := 0; rep < 3; rep++ {
		if _, err := SolveWS(other, ws); err != nil {
			t.Fatal(err)
		}
		got, err := SolveWS(p, ws)
		if err != nil {
			t.Fatal(err)
		}
		solutionsBitIdentical(t, keep, got)
	}
}

// An explicit uniform interface grid must reproduce the Intervals grid
// exactly, and a refined grid must still solve the problem accurately.
func TestSolveInterfaces(t *testing.T) {
	p := sinkProblem(400)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}

	zs := make([]float64, p.Intervals+1)
	for i := range zs {
		zs[i] = float64(i) * p.Length / float64(p.Intervals)
	}
	zs[len(zs)-1] = p.Length
	q := sinkProblem(400)
	q.Interfaces = zs
	got, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	solutionsBitIdentical(t, want, got)

	// A non-uniform refinement changes roundoff but not the solution.
	r := sinkProblem(400)
	r.Interfaces = []float64{0, 0.1, 0.15, 0.4, 0.7, 1.0}
	ref, err := Solve(r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ref.Params[0]-want.Params[0]) > 1e-8 {
		t.Fatalf("refined params %v vs %v", ref.Params[0], want.Params[0])
	}

	// Malformed grids are rejected.
	for _, bad := range [][]float64{
		{0},
		{0.1, 1},
		{0, 0.9},
		{0, 0.5, 0.5, 1},
		{0, 0.7, 0.3, 1},
	} {
		b := sinkProblem(400)
		b.Interfaces = bad
		if _, err := Solve(b); err == nil {
			t.Fatalf("interface grid %v not rejected", bad)
		}
	}
}

// A Transition hook returning exactly what basis propagation produces must
// leave the solution bit-identical to the fallback path.
func TestSolveTransitionHook(t *testing.T) {
	p := sinkProblem(400)
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}

	q := sinkProblem(400)
	calls := 0
	q.Transition = func(a, b float64) (*mat.Dense, mat.Vec, error) {
		calls++
		phi := mat.NewDense(q.Dim, q.Dim)
		basis := make(mat.Vec, q.Dim)
		sol, err := q.Propagate(a, b, basis, false)
		if err != nil {
			return nil, nil, err
		}
		psi := sol.Final().Clone()
		for j := 0; j < q.Dim; j++ {
			basis.Fill(0)
			basis[j] = 1
			hs, err := q.Propagate(a, b, basis, true)
			if err != nil {
				return nil, nil, err
			}
			for r := 0; r < q.Dim; r++ {
				phi.Set(r, j, hs.Final()[r])
			}
		}
		return phi, psi, nil
	}
	got, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if calls != q.Intervals {
		t.Fatalf("transition hook called %d times, want %d", calls, q.Intervals)
	}
	solutionsBitIdentical(t, want, got)

	// Hook errors surface to the caller.
	q.Transition = func(a, b float64) (*mat.Dense, mat.Vec, error) {
		return nil, nil, errors.New("boom")
	}
	if _, err := Solve(q); err == nil {
		t.Fatal("transition error not propagated")
	}
}

// SolveWS with memoized transitions and a warm workspace must stay down
// at the few unavoidable result allocations (the params clone and the
// Solution header).
func TestSolveWSWarmAllocs(t *testing.T) {
	dim := 2
	zs := []float64{0, 0.25, 0.5, 0.75, 1}
	phi := mat.NewDense(dim, dim)
	phi.Set(0, 0, 1)
	phi.Set(0, 1, 0.1)
	phi.Set(1, 1, 0.5)
	psi := make(mat.Vec, dim)
	psi[0] = 0.2
	// A reconstruction propagator reusing one preallocated segment whose
	// end state matches the transition map.
	seg := &ode.Solution{
		Z: mat.Vec{0, 1},
		X: []mat.Vec{make(mat.Vec, dim), make(mat.Vec, dim)},
	}
	p := &Problem{
		Dim:        dim,
		Length:     1,
		Interfaces: zs,
		Propagate: func(a, b float64, x0 mat.Vec, homogeneous bool) (*ode.Solution, error) {
			seg.Z[0], seg.Z[1] = a, b
			copy(seg.X[0], x0)
			phi.MulVec(seg.X[1], x0)
			seg.X[1].AddScaled(1, psi)
			return seg, nil
		},
		Transition:   func(a, b float64) (*mat.Dense, mat.Vec, error) { return phi, psi, nil },
		X0Base:       mat.Vec{0, 0},
		X0Modes:      []mat.Vec{{0, 1}},
		TerminalZero: []int{1},
	}
	ws := &Workspace{}
	if _, err := SolveWS(p, ws); err != nil {
		t.Fatal(err)
	}
	//chanmod:allocgate bvp.SolveWS
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SolveWS(p, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm SolveWS allocated %v objects per run, want <= 2", allocs)
	}
}
