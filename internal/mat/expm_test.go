package mat

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator for reproducible test matrices.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(int64(*g>>11))/float64(1<<52) - 1 // roughly uniform in [-1, 1)
}

func randDense(g *lcg, n int, scale float64) *Dense {
	m := NewDense(n, n)
	for i := range m.data {
		m.data[i] = scale * g.next()
	}
	return m
}

func maxAbsDiff(a, b *Dense) float64 {
	var worst float64
	for i := range a.data {
		if d := math.Abs(a.data[i] - b.data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestExpmZeroMatrix(t *testing.T) {
	e, err := Expm(NewDense(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(e, Identity(3)); d != 0 {
		t.Fatalf("expm(0) differs from I by %g", d)
	}
}

func TestExpmDiagonal(t *testing.T) {
	a := NewDense(3, 3)
	diag := []float64{-2.5, 0.75, 3.125}
	for i, v := range diag {
		a.Set(i, i, v)
	}
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range diag {
		if got, want := e.At(i, i), math.Exp(v); math.Abs(got-want) > 1e-14*want {
			t.Errorf("diag %d: got %g want %g", i, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j && math.Abs(e.At(i, j)) > 1e-15 {
				t.Errorf("off-diagonal (%d,%d) = %g", i, j, e.At(i, j))
			}
		}
	}
}

// A strictly upper-triangular (nilpotent) matrix has the exact polynomial
// exponential I + N + N²/2 + N³/6.
func TestExpmNilpotent(t *testing.T) {
	n := NewDenseFrom([][]float64{
		{0, 2, -1, 3},
		{0, 0, 4, -2},
		{0, 0, 0, 5},
		{0, 0, 0, 0},
	})
	e, err := Expm(n)
	if err != nil {
		t.Fatal(err)
	}
	want := Identity(4)
	pow := Identity(4)
	fact := 1.0
	for k := 1; k <= 3; k++ {
		pow = Mul(pow, n)
		fact *= float64(k)
		for i := range want.data {
			want.data[i] += pow.data[i] / fact
		}
	}
	if d := maxAbsDiff(e, want); d > 1e-12 {
		t.Fatalf("nilpotent expm off by %g", d)
	}
}

// A defective Jordan block [[λ,1],[0,λ]] exponentiates to e^λ·[[1,1],[0,1]].
func TestExpmDefectiveJordanBlock(t *testing.T) {
	const lambda = -1.75
	a := NewDenseFrom([][]float64{{lambda, 1}, {0, lambda}})
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	el := math.Exp(lambda)
	want := NewDenseFrom([][]float64{{el, el}, {0, el}})
	if d := maxAbsDiff(e, want); d > 1e-14 {
		t.Fatalf("Jordan block expm off by %g", d)
	}
}

// A large-norm rotation exercises the squaring path (s > 0) against the
// closed-form rotation matrix.
func TestExpmLargeNormRotation(t *testing.T) {
	const theta = 321.5 // ‖A‖ far above the Padé threshold
	a := NewDenseFrom([][]float64{{0, -theta}, {theta, 0}})
	e, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	want := NewDenseFrom([][]float64{
		{math.Cos(theta), -math.Sin(theta)},
		{math.Sin(theta), math.Cos(theta)},
	})
	if d := maxAbsDiff(e, want); d > 1e-10 {
		t.Fatalf("rotation expm off by %g", d)
	}
}

// e^A · e^(−A) = I for generic matrices, including stiff ones.
func TestExpmInverseIdentity(t *testing.T) {
	g := lcg(7)
	for _, scale := range []float64{0.5, 3, 20} {
		a := randDense(&g, 5, scale)
		na := a.Clone()
		for i := range na.data {
			na.data[i] = -na.data[i]
		}
		ea, err := Expm(a)
		if err != nil {
			t.Fatal(err)
		}
		ena, err := Expm(na)
		if err != nil {
			t.Fatal(err)
		}
		prod := Mul(ea, ena)
		// Stiff directions amplify rounding; scale the gate by the result size.
		tol := 1e-12 * math.Max(1, ea.NormInf()*ena.NormInf())
		if d := maxAbsDiff(prod, Identity(5)); d > tol {
			t.Errorf("scale %g: e^A·e^-A off identity by %g (tol %g)", scale, d, tol)
		}
	}
}

// Workspace reuse must be bit-identical to fresh computation — the piece
// memo keys rely on it.
func TestExpmWorkspaceDeterminism(t *testing.T) {
	g := lcg(11)
	var ws ExpmWS
	// Warm the workspace on a different, larger matrix first.
	if _, err := ws.Expm(nil, randDense(&g, 7, 4)); err != nil {
		t.Fatal(err)
	}
	a := randDense(&g, 4, 2)
	warm, err := ws.Expm(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm.data {
		if warm.data[i] != fresh.data[i] {
			t.Fatalf("element %d: warm %v != fresh %v", i, warm.data[i], fresh.data[i])
		}
	}
}

// The Fréchet derivative must match a 4th-order central difference of the
// exponential map itself.
func TestExpmFrechetVsHighOrderFD(t *testing.T) {
	g := lcg(23)
	a := randDense(&g, 4, 1.5)
	e := randDense(&g, 4, 1)
	ex, l, err := ExpmFrechet(a, e)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Expm(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(ex, direct); d > 1e-13 {
		t.Fatalf("Frechet exp block differs from direct expm by %g", d)
	}
	const h = 1e-4
	at := func(s float64) *Dense {
		m := a.Clone()
		for i := range m.data {
			m.data[i] += s * e.data[i]
		}
		out, err := Expm(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	p1, m1, p2, m2 := at(h), at(-h), at(2*h), at(-2*h)
	fd := NewDense(4, 4)
	for i := range fd.data {
		fd.data[i] = (8*(p1.data[i]-m1.data[i]) - (p2.data[i] - m2.data[i])) / (12 * h)
	}
	if d := maxAbsDiff(l, fd); d > 1e-9*math.Max(1, l.NormInf()) {
		t.Fatalf("Frechet derivative differs from high-order FD by %g", d)
	}
}

func TestExpmRejectsNonFinite(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 1, math.NaN())
	if _, err := Expm(a); err == nil {
		t.Fatal("expected error for NaN input")
	}
	b := NewDense(2, 3)
	if _, err := Expm(b); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestLUSolveTransposed(t *testing.T) {
	g := lcg(41)
	a := randDense(&g, 6, 2)
	for i := 0; i < 6; i++ {
		a.Add(i, i, 4) // keep it comfortably nonsingular
	}
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make(Vec, 6)
	for i := range b {
		b[i] = g.next()
	}
	x, err := f.SolveTransposed(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	// Residual of Aᵀ·x = b.
	for i := 0; i < 6; i++ {
		var s float64
		for j := 0; j < 6; j++ {
			s += a.At(j, i) * x[j]
		}
		if math.Abs(s-b[i]) > 1e-12 {
			t.Errorf("row %d residual %g", i, s-b[i])
		}
	}
	// Cross-check against a direct solve with the explicit transpose.
	ft, err := Factorize(a.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ft.Solve(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
			t.Errorf("x[%d] = %g, transpose-factor solve %g", i, x[i], want[i])
		}
	}
	// Aliasing dst == b must work.
	alias := b.Clone()
	if _, err := f.SolveTransposed(alias, alias); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if alias[i] != x[i] {
			t.Errorf("aliased solve differs at %d: %g vs %g", i, alias[i], x[i])
		}
	}
}

// Regression: repeated large-norm exponentials through one workspace must
// match fresh-workspace results. An odd number of squaring-loop swaps once
// left two workspace fields aliased to the same matrix, corrupting every
// subsequent call that needed scaling.
func TestExpmWorkspaceReuseLargeNorm(t *testing.T) {
	g := lcg(99)
	var ws ExpmWS
	for trial := 0; trial < 6; trial++ {
		n := 3 + trial%3
		scale := 50.0 * float64(1+trial) // forces varying squaring depths
		a := randDense(&g, n, scale)
		got, err := ws.Expm(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Expm(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("trial %d: warm [%d,%d] = %g, fresh = %g", trial, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// The workspace exponential must not allocate once warm.
func TestExpmWarmZeroAlloc(t *testing.T) {
	g := lcg(31)
	var ws ExpmWS
	a := randDense(&g, 6, 2)
	dst := NewDense(6, 6)
	if _, err := ws.Expm(dst, a); err != nil {
		t.Fatal(err)
	}
	//chanmod:allocgate mat.ExpmWS.Expm
	//chanmod:allocgate mat.ExpmWS.scaleSquare
	//chanmod:allocgate mat.ExpmWS.solveCols
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ws.Expm(dst, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Expm allocated %v times per run, want 0", allocs)
	}
}
