package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func buildLaplacian1D(n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.Build()
}

func TestBuilderDuplicatesSummed(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 0, -1)
	b.Add(1, 0, 1) // cancels to zero; must be dropped
	b.Add(0, 1, 0) // zero value; must be ignored
	m := b.Build()
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %v", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %v", got)
	}
	if m.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1", m.NNZ())
	}
	if b.NNZ() != 4 {
		t.Errorf("builder NNZ = %d, want 4", b.NNZ())
	}
}

func TestCSRMulVec(t *testing.T) {
	m := buildLaplacian1D(4)
	y := m.MulVec(nil, mat.Vec{1, 2, 3, 4})
	want := mat.Vec{0, 0, 0, 5}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-14 {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	if m.Rows() != 4 || m.Cols() != 4 {
		t.Fatal("shape")
	}
}

func TestCSRDiagonalDense(t *testing.T) {
	m := buildLaplacian1D(3)
	d := m.Diagonal()
	for _, v := range d {
		if v != 2 {
			t.Fatalf("diag = %v", d)
		}
	}
	dense := m.Dense()
	if dense.At(0, 1) != -1 || dense.At(2, 2) != 2 {
		t.Fatal("Dense conversion wrong")
	}
	if !m.IsDiagonallyDominant() {
		t.Fatal("Laplacian is diagonally dominant")
	}
}

func TestRowScale(t *testing.T) {
	m := buildLaplacian1D(3)
	if err := m.RowScale(mat.Vec{2, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 4 || m.At(0, 1) != -2 || m.At(1, 1) != 2 {
		t.Fatal("RowScale wrong")
	}
	if err := m.RowScale(mat.Vec{1}); err == nil {
		t.Fatal("RowScale must reject bad length")
	}
}

func TestBiCGSTABLaplacian(t *testing.T) {
	n := 60
	m := buildLaplacian1D(n)
	xTrue := make(mat.Vec, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i) * 0.3)
	}
	b := m.MulVec(nil, xTrue)
	res, err := BiCGSTAB(m, b, SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.Sub(nil, res.X, xTrue).NormInf(); diff > 1e-7 {
		t.Fatalf("BiCGSTAB error %g (iters %d, res %g)", diff, res.Iterations, res.Residual)
	}
}

func TestBiCGSTABNonsymmetric(t *testing.T) {
	// Advection-diffusion-like upwind stencil: strongly non-symmetric.
	n := 80
	b := NewBuilder(n, n)
	pe := 5.0 // Peclet-like ratio
	for i := 0; i < n; i++ {
		b.Add(i, i, 2+pe)
		if i > 0 {
			b.Add(i, i-1, -1-pe)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	m := b.Build()
	xTrue := make(mat.Vec, n)
	rng := rand.New(rand.NewSource(3))
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	rhs := m.MulVec(nil, xTrue)
	res, err := BiCGSTAB(m, rhs, SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if diff := mat.Sub(nil, res.X, xTrue).NormInf(); diff > 1e-6 {
		t.Fatalf("nonsymmetric solve error %g", diff)
	}
}

func TestBiCGSTABZeroRHS(t *testing.T) {
	m := buildLaplacian1D(5)
	res, err := BiCGSTAB(m, make(mat.Vec, 5), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X.NormInf() != 0 {
		t.Fatal("zero rhs must give zero solution")
	}
}

func TestBiCGSTABShapeErrors(t *testing.T) {
	m := buildLaplacian1D(4)
	if _, err := BiCGSTAB(m, mat.Vec{1, 2}, SolveOptions{}); err == nil {
		t.Fatal("must reject wrong rhs length")
	}
	rect := NewBuilder(2, 3)
	rect.Add(0, 0, 1)
	if _, err := BiCGSTAB(rect.Build(), mat.Vec{1, 2}, SolveOptions{}); err == nil {
		t.Fatal("must reject non-square matrix")
	}
	if _, err := BiCGSTAB(m, mat.Vec{1, 1, 1, 1}, SolveOptions{X0: mat.Vec{1}}); err == nil {
		t.Fatal("must reject wrong X0 length")
	}
}

func TestNoConvergenceReported(t *testing.T) {
	m := buildLaplacian1D(50)
	xTrue := make(mat.Vec, 50)
	for i := range xTrue {
		xTrue[i] = 1
	}
	b := m.MulVec(nil, xTrue)
	_, err := BiCGSTAB(m, b, SolveOptions{Tol: 1e-14, MaxIter: 8})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
}

// Property: BiCGSTAB matches the dense LU solution on random
// diagonally-dominant sparse systems.
func TestBiCGSTABMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(25)
		bld := NewBuilder(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for k := 0; k < 3; k++ {
				j := r.Intn(n)
				if j == i {
					continue
				}
				v := r.NormFloat64()
				bld.Add(i, j, v)
				rowSum += math.Abs(v)
			}
			bld.Add(i, i, rowSum+1+r.Float64())
		}
		m := bld.Build()
		rhs := make(mat.Vec, n)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		res, err := BiCGSTAB(m, rhs, SolveOptions{Tol: 1e-12})
		if err != nil {
			return false
		}
		xd, err := mat.Solve(m.Dense(), rhs)
		if err != nil {
			return false
		}
		return mat.Sub(nil, res.X, xd).NormInf() < 1e-6*(1+xd.NormInf())
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("shape", func() { NewBuilder(0, 1) })
	assertPanics("oob", func() { NewBuilder(2, 2).Add(2, 0, 1) })
	assertPanics("mulvec", func() { buildLaplacian1D(3).MulVec(nil, mat.Vec{1}) })
}
