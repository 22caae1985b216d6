package bvp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/ode"
)

// shootingCase is a multiple-shooting problem over fixed transition maps,
// so that the dense reference can assemble the very system SolveWS does.
type shootingCase struct {
	p    *Problem
	phis []*mat.Dense
	psis []mat.Vec
}

// randomShootingCase draws a problem with m intervals of state dimension
// dim and nU unknowns. Each transition row (and its particular term) is
// scaled by 10^U(−6, 6), so partial pivoting moves rows far from their
// first column. With uniform set the problem uses the Intervals grid,
// otherwise a random explicit Interfaces grid.
func randomShootingCase(rng *rand.Rand, dim, m, nU int, uniform bool) *shootingCase {
	const length = 1.0
	zs := make([]float64, m+1)
	if uniform {
		for i := range zs {
			zs[i] = float64(i) * length / float64(m)
		}
	} else {
		for i := 1; i <= m; i++ {
			zs[i] = zs[i-1] + 0.5 + rng.Float64()
		}
		for i := 1; i < m; i++ {
			zs[i] *= length / zs[m]
		}
	}
	zs[m] = length
	sc := &shootingCase{phis: make([]*mat.Dense, m), psis: make([]mat.Vec, m)}
	for i := 0; i < m; i++ {
		phi := mat.NewDense(dim, dim)
		psi := make(mat.Vec, dim)
		for r := 0; r < dim; r++ {
			scale := math.Pow(10, -6+12*rng.Float64())
			for c := 0; c < dim; c++ {
				phi.Set(r, c, scale*rng.NormFloat64())
			}
			psi[r] = scale * rng.NormFloat64()
		}
		sc.phis[i], sc.psis[i] = phi, psi
	}
	index := make(map[float64]int, m)
	for i, z := range zs[:m] {
		index[z] = i
	}
	seg := &ode.Solution{Z: make(mat.Vec, 2), X: []mat.Vec{make(mat.Vec, dim), make(mat.Vec, dim)}}
	p := &Problem{
		Dim:    dim,
		Length: length,
		Propagate: func(a, b float64, x0 mat.Vec, homogeneous bool) (*ode.Solution, error) {
			i := index[a]
			seg.Z[0], seg.Z[1] = a, b
			copy(seg.X[0], x0)
			sc.phis[i].MulVec(seg.X[1], x0)
			if !homogeneous {
				seg.X[1].AddScaled(1, sc.psis[i])
			}
			return seg, nil
		},
		Transition: func(a, b float64) (*mat.Dense, mat.Vec, error) {
			i := index[a]
			return sc.phis[i], sc.psis[i], nil
		},
		X0Base:       make(mat.Vec, dim),
		X0Modes:      make([]mat.Vec, nU),
		TerminalZero: rng.Perm(dim)[:nU],
	}
	if uniform {
		p.Intervals = m
	} else {
		p.Interfaces = zs
	}
	for c := range p.X0Base {
		p.X0Base[c] = rng.NormFloat64()
	}
	for k := range p.X0Modes {
		mode := make(mat.Vec, dim)
		for c := range mode {
			mode[c] = rng.NormFloat64()
		}
		p.X0Modes[k] = mode
	}
	sc.p = p
	return sc
}

// denseSystem assembles the shooting system S·u = r as a dense matrix, the
// way SolveWS assembled it before the staircase elimination: the reference
// the staircase must reproduce.
func (sc *shootingCase) denseSystem() (*mat.Dense, mat.Vec) {
	p := sc.p
	dim, nU, m := p.Dim, len(p.X0Modes), len(sc.phis)
	trans, parts := sc.phis, sc.psis
	nUnk := nU + (m-1)*dim
	sys := mat.NewDense(nUnk, nUnk)
	rhs := make(mat.Vec, nUnk)
	xOff := func(i int) int { return nU + (i-1)*dim }
	m0base := trans[0].MulVec(nil, p.X0Base)
	row := 0
	if m > 1 {
		for r := 0; r < dim; r++ {
			for k := 0; k < nU; k++ {
				var s float64
				for c := 0; c < dim; c++ {
					s += trans[0].At(r, c) * p.X0Modes[k][c]
				}
				sys.Set(row, k, s)
			}
			sys.Set(row, xOff(1)+r, -1)
			rhs[row] = -m0base[r] - parts[0][r]
			row++
		}
		for i := 1; i < m-1; i++ {
			for r := 0; r < dim; r++ {
				for c := 0; c < dim; c++ {
					sys.Add(row, xOff(i)+c, trans[i].At(r, c))
				}
				sys.Set(row, xOff(i+1)+r, -1)
				rhs[row] = -parts[i][r]
				row++
			}
		}
		for _, idx := range p.TerminalZero {
			for c := 0; c < dim; c++ {
				sys.Add(row, xOff(m-1)+c, trans[m-1].At(idx, c))
			}
			rhs[row] = -parts[m-1][idx]
			row++
		}
	} else {
		for _, idx := range p.TerminalZero {
			for k := 0; k < nU; k++ {
				var s float64
				for c := 0; c < dim; c++ {
					s += trans[0].At(idx, c) * p.X0Modes[k][c]
				}
				sys.Set(row, k, s)
			}
			rhs[row] = -m0base[idx] - parts[0][idx]
			row++
		}
	}
	return sys, rhs
}

// adjointRHS assembles ∂J/∂u from per-interval gradients as AdjointSolve
// does.
func (sc *shootingCase) adjointRHS(gx []mat.Vec) mat.Vec {
	p := sc.p
	dim, nU, m := p.Dim, len(p.X0Modes), len(sc.phis)
	g := make(mat.Vec, nU+(m-1)*dim)
	for k := 0; k < nU; k++ {
		g[k] = p.X0Modes[k].Dot(gx[0])
	}
	for i := 1; i < m; i++ {
		copy(g[nU+(i-1)*dim:], gx[i])
	}
	return g
}

func randomGradients(rng *rand.Rand, m, dim int) []mat.Vec {
	gx := make([]mat.Vec, m)
	for i := range gx {
		gx[i] = make(mat.Vec, dim)
		for r := range gx[i] {
			gx[i][r] = rng.NormFloat64()
		}
	}
	return gx
}

func equalVecs(t *testing.T, what string, got, want mat.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, dense LU gives %v", what, i, got[i], want[i])
		}
	}
}

// sameFailure checks that SolveWS failed as the dense factorization of the
// same system did: ErrUnsolvable wrapping mat.ErrSingular, at the same
// pivot index and magnitude.
func sameFailure(t *testing.T, name string, err, denseErr error) {
	t.Helper()
	if !errors.Is(err, ErrUnsolvable) || !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("%s: want ErrUnsolvable wrapping mat.ErrSingular, got %v", name, err)
	}
	if want := fmt.Sprintf("%v: %v", ErrUnsolvable, denseErr); err.Error() != want {
		t.Fatalf("%s: error %q, dense LU fails with %q", name, err, want)
	}
}

// Property: on random staircase systems — dims 2–55, 1–72 intervals, every
// unknown count from 1 to dim, row scales over 1e±6, explicit and uniform
// grids, and every fifth system with transition entries in {−1, 0, 1} for
// pivot ties, exact zeros and cancellations — SolveWS and AdjointSolve
// equal a dense mat.LU factor-and-solve of the same system under ==, and
// a singular system fails with ErrUnsolvable at the same pivot as the
// dense factorization.
func TestStaircaseMatchesDenseLU(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	type shape struct{ dim, m, nU int }
	shapes := []shape{
		{2, 1, 1}, {2, 1, 2}, {2, 72, 1}, {2, 72, 2}, {3, 2, 3},
		{4, 1, 3}, {4, 16, 2}, {4, 72, 2}, {4, 72, 4},
		{20, 1, 8}, {20, 20, 8}, {20, 5, 20},
		{55, 1, 55}, {55, 1, 22}, {55, 3, 1}, {55, 8, 22}, {55, 8, 55},
	}
	for len(shapes) < 60 {
		dim := 2 + rng.Intn(54)
		m := 1 + rng.Intn(72)
		if (m-1)*dim > 400 {
			m = 1 + 400/dim
		}
		shapes = append(shapes, shape{dim, m, 1 + rng.Intn(dim)})
	}
	ws := &Workspace{}
	maxMove, solved := 0, 0
	for trial, sh := range shapes {
		uniform := trial%2 == 1
		ints := trial%5 == 4
		name := fmt.Sprintf("trial %d (dim %d, %d intervals, %d unknowns, uniform %v, integer %v)",
			trial, sh.dim, sh.m, sh.nU, uniform, ints)
		sc := randomShootingCase(rng, sh.dim, sh.m, sh.nU, uniform)
		if ints {
			for _, phi := range sc.phis {
				for r := 0; r < sh.dim; r++ {
					row := phi.Row(r)
					for c := range row {
						row[c] = float64(rng.Intn(3) - 1)
					}
				}
			}
		}
		a, r := sc.denseSystem()
		lu, denseErr := mat.Factorize(a)
		if denseErr != nil {
			_, err := SolveWS(sc.p, ws)
			sameFailure(t, name, err, denseErr)
			continue
		}
		solved++
		want, err := lu.Solve(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveWS(sc.p, ws)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		equalVecs(t, name+": unknowns", ws.u[:len(want)], want)
		equalVecs(t, name+": params", sol.Params, want[:sh.nU])
		for i, row := range ws.sys.rows[:ws.sys.n] {
			maxMove = max(maxMove, i-row.lo)
		}

		gx := randomGradients(rng, sh.m, sh.dim)
		wantLam, err := lu.SolveTransposed(nil, sc.adjointRHS(gx))
		if err != nil {
			t.Fatal(err)
		}
		lam, err := ws.AdjointSolve(gx)
		if err != nil {
			t.Fatalf("%s: adjoint: %v", name, err)
		}
		equalVecs(t, name+": adjoint", lam, wantLam)
	}
	// The row scales must make pivoting carry rows well past the band.
	if maxMove < 200 || solved < len(shapes)*3/4 {
		t.Fatalf("largest row displacement %d, %d of %d systems regular; the property does not exercise far pivoting",
			maxMove, solved, len(shapes))
	}

	// Singular systems: a zero inlet mode empties its parameter column, a
	// zero terminal row leaves a row with nothing to pivot on.
	singular := []struct {
		name  string
		shape shape
		spoil func(sc *shootingCase)
	}{
		{"zero mode", shape{4, 16, 3}, func(sc *shootingCase) { sc.p.X0Modes[1].Fill(0) }},
		{"zero mode, one interval", shape{6, 1, 4}, func(sc *shootingCase) { sc.p.X0Modes[2].Fill(0) }},
		{"zero terminal row", shape{5, 12, 2}, func(sc *shootingCase) {
			sc.phis[len(sc.phis)-1].Row(sc.p.TerminalZero[0]).Fill(0)
		}},
		{"zero terminal row, wide", shape{20, 9, 8}, func(sc *shootingCase) {
			sc.phis[len(sc.phis)-1].Row(sc.p.TerminalZero[3]).Fill(0)
		}},
	}
	for _, tc := range singular {
		sc := randomShootingCase(rng, tc.shape.dim, tc.shape.m, tc.shape.nU, false)
		tc.spoil(sc)
		a, _ := sc.denseSystem()
		_, denseErr := mat.Factorize(a)
		if denseErr == nil {
			t.Fatalf("%s: dense reference factorized a singular system", tc.name)
		}
		_, err := SolveWS(sc.p, ws)
		sameFailure(t, tc.name, err, denseErr)
		if _, err := ws.AdjointSolve(randomGradients(rng, tc.shape.m, tc.shape.dim)); err == nil {
			t.Fatalf("%s: AdjointSolve after a failed solve must fail", tc.name)
		}
	}
}

// loadBanded assembles a into f over the windows of a band of half-width
// bw: row i spans columns max(0, i−bw) … min(n, i+bw+1).
func loadBanded(f *staircase, a *mat.Dense, bw int) {
	n := a.Rows()
	f.reset(n, bw)
	for i := 0; i < n; i++ {
		lo, hi := max(0, i-bw), min(n, i+bw+1)
		w := f.addRow(lo, hi)
		for c, v := range a.Row(i)[lo:hi] {
			w[c] += v
		}
	}
}

// randomBanded draws a banded matrix whose row scales spread over 1e±6.
func randomBanded(rng *rand.Rand, n, bw int) *mat.Dense {
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		scale := math.Pow(10, -6+12*rng.Float64())
		for c := max(0, i-bw); c < min(n, i+bw+1); c++ {
			a.Set(i, c, scale*rng.NormFloat64())
		}
	}
	return a
}

// The elimination on its own: banded systems of several widths factor,
// solve and solve transposed exactly as mat.LU does, and a warm
// factor-and-solve allocates nothing.
func TestStaircaseBandedWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := &staircase{}
	for _, sh := range []struct{ n, bw int }{{1, 0}, {7, 1}, {40, 3}, {120, 9}} {
		a := randomBanded(rng, sh.n, sh.bw)
		b := make(mat.Vec, sh.n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := mat.Factorize(a)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := lu.Solve(nil, b)
		wantT, _ := lu.SolveTransposed(nil, b)
		loadBanded(f, a, sh.bw)
		if err := f.factor(); err != nil {
			t.Fatal(err)
		}
		x, xt := make(mat.Vec, sh.n), make(mat.Vec, sh.n)
		f.solve(x, b)
		f.solveTransposed(xt, b)
		equalVecs(t, fmt.Sprintf("n %d bw %d: solve", sh.n, sh.bw), x, want)
		equalVecs(t, fmt.Sprintf("n %d bw %d: transposed", sh.n, sh.bw), xt, wantT)
	}

	a := randomBanded(rng, 60, 5)
	b := make(mat.Vec, 60)
	x := make(mat.Vec, 60)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	run := func() {
		loadBanded(f, a, 5)
		if err := f.factor(); err != nil {
			t.Fatal(err)
		}
		f.solve(x, b)
		f.solveTransposed(x, b)
	}
	run()
	//chanmod:allocgate bvp.staircase.factor
	//chanmod:allocgate bvp.staircase.solve
	//chanmod:allocgate bvp.staircase.solveTransposed
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm factor and solves allocated %v objects per run, want 0", allocs)
	}
}

// A warm adjoint solve allocates nothing.
func TestAdjointSolveWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := randomShootingCase(rng, 4, 16, 2, false)
	ws := &Workspace{}
	if _, err := SolveWS(sc.p, ws); err != nil {
		t.Fatal(err)
	}
	gx := randomGradients(rng, 16, 4)
	if _, err := ws.AdjointSolve(gx); err != nil {
		t.Fatal(err)
	}
	//chanmod:allocgate bvp.Workspace.AdjointSolve
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.AdjointSolve(gx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm AdjointSolve allocated %v objects per run, want 0", allocs)
	}
}

// BenchmarkSolveWS times one warm shooting solve with memoized transitions
// at the shapes a design session produces: the eliminated single-channel
// form (dim 4) at 16 and 72 intervals, and the coupled 4- and 11-channel
// forms (dims 20 and 55, two unknowns per channel).
func BenchmarkSolveWS(b *testing.B) {
	for _, sh := range []struct{ dim, m, nU int }{{4, 16, 2}, {4, 72, 2}, {20, 20, 8}, {55, 32, 22}} {
		b.Run(fmt.Sprintf("dim%d_m%d", sh.dim, sh.m), func(b *testing.B) {
			sc := randomShootingCase(rand.New(rand.NewSource(1)), sh.dim, sh.m, sh.nU, false)
			ws := &Workspace{}
			if _, err := SolveWS(sc.p, ws); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveWS(sc.p, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
