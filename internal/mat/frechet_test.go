package mat

import (
	"math"
	"math/big"
	"testing"
)

// relErr is ‖got − want‖max / ‖want‖max.
func relErr(got, want *Dense) float64 {
	var scale float64
	for _, v := range want.data {
		scale = math.Max(scale, math.Abs(v))
	}
	return maxAbsDiff(got, want) / scale
}

// dividedDifference is (e^x − e^y)/(x − y), or e^x when x == y: the
// Fréchet derivative of the exponential of a diagonal matrix is the
// direction scaled entrywise by these (Higham, Functions of Matrices,
// Theorem 3.11). expm1 keeps it exact to rounding for close x and y, and
// factoring out the larger exponent keeps it finite for far ones.
func dividedDifference(x, y float64) float64 {
	if x == y {
		return math.Exp(x)
	}
	hi, lo := math.Max(x, y), math.Min(x, y)
	return math.Exp(hi) * -math.Expm1(lo-hi) / (hi - lo)
}

// The derivative must match the closed form for a stiff diagonal
// generator, however large the direction: its size must not reach the
// scaling power. A block method that scales by the norm of [[A, E], [0, A]]
// over-squares here and loses digits as ‖E‖ grows.
func TestFrechetExactDividedDifferences(t *testing.T) {
	lambda := []float64{-1, -3.5, -20, -150, -600, -1000}
	n := len(lambda)
	a := NewDense(n, n)
	for i, v := range lambda {
		a.Set(i, i, v)
	}
	g := lcg(5)
	e0 := randDense(&g, n, 1)
	for _, ratio := range []float64{1, 1e2, 1e4, 1e6} {
		e := e0.Clone()
		s := ratio * a.NormInf() / e.NormInf()
		for i := range e.data {
			e.data[i] *= s
		}
		ex, l, err := ExpmFrechet(a, e)
		if err != nil {
			t.Fatal(err)
		}
		want := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want.Set(i, j, e.At(i, j)*dividedDifference(lambda[i], lambda[j]))
			}
		}
		d := relErr(l, want)
		t.Logf("‖E‖/‖A‖ = %g: derivative error %.2e", ratio, d)
		if !(d <= 1e-12) {
			t.Errorf("‖E‖/‖A‖ = %g: derivative off the divided differences by %.2e of its norm", ratio, d)
		}
		exact := NewDense(n, n)
		for i, v := range lambda {
			exact.Set(i, i, math.Exp(v))
		}
		if d := relErr(ex, exact); !(d <= 1e-13) {
			t.Errorf("‖E‖/‖A‖ = %g: exponential off by %.2e of its norm", ratio, d)
		}
	}
}

// augmentedPair builds a generator shaped like the compact model's
// eliminated piece, scaled by its length: a 4-state block with the
// conduction rows [0 0 −k 0], [0 0 0 −k] and two coupled heat-flow rows,
// the coolant slope and forcing columns, and the [[0, h], [0, 0]] tail.
// The direction is a width derivative: nonzero in the heat-flow rows
// only, ratio times the generator's norm.
func augmentedPair(k, gv, gc, d, slope, f, ratio float64) (a, e *Dense) {
	a = NewDenseFrom([][]float64{
		{0, 0, -k, 0, 0, 0},
		{0, 0, 0, -k, 0, 0},
		{-gv, gc, -d, -d, slope, f},
		{gc, -gv, -d, -d, slope, 0.95 * f},
		{0, 0, 0, 0, 0, 8e-4},
		{0, 0, 0, 0, 0, 0},
	})
	e = NewDenseFrom([][]float64{
		{0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0},
		{1.2, -1, 0.55, 0.55, -1, -0.05},
		{-1, 1.2, 0.55, 0.55, -1, -0.05},
		{0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0},
	})
	s := ratio * a.NormInf() / e.NormInf()
	for i := range e.data {
		e.data[i] *= s
	}
	return a, e
}

// bigFrechet returns L(a, e) from the exponential of the block
// [[a, e], [0, a]] in prec-bit arithmetic: scaling until the block's norm
// is below 1/8, a Taylor series summed until its terms vanish at that
// precision, and squaring back. At 300 bits the result is exact to far
// below float64 rounding.
func bigFrechet(a, e *Dense, prec uint) *Dense {
	n := a.Rows()
	m := 2 * n
	newMat := func() [][]*big.Float {
		x := make([][]*big.Float, m)
		for i := range x {
			x[i] = make([]*big.Float, m)
			for j := range x[i] {
				x[i][j] = new(big.Float).SetPrec(prec)
			}
		}
		return x
	}
	mul := func(dst, x, y [][]*big.Float) {
		t := new(big.Float).SetPrec(prec)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				s := new(big.Float).SetPrec(prec)
				for k := 0; k < m; k++ {
					s.Add(s, t.Mul(x[i][k], y[k][j]))
				}
				dst[i][j].Set(s)
			}
		}
	}
	blk := NewDense(m, m)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			blk.Set(i, j, a.At(i, j))
			blk.Set(i, n+j, e.At(i, j))
			blk.Set(n+i, n+j, a.At(i, j))
		}
	}
	s := 0
	for nrm := blk.NormInf(); nrm > 0.125; nrm /= 2 {
		s++
	}
	x := newMat()
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			x[i][j].SetMantExp(big.NewFloat(blk.At(i, j)).SetPrec(prec), -s)
		}
	}
	sum, term, next := newMat(), newMat(), newMat()
	for i := 0; i < m; i++ {
		sum[i][i].SetInt64(1)
		term[i][i].SetInt64(1)
	}
	eps := new(big.Float).SetMantExp(big.NewFloat(1), -int(prec))
	for k := 1; ; k++ {
		mul(next, term, x)
		kf := new(big.Float).SetPrec(prec).SetInt64(int64(k))
		small := true
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				term[i][j].Quo(next[i][j], kf)
				sum[i][j].Add(sum[i][j], term[i][j])
				if new(big.Float).Abs(term[i][j]).Cmp(eps) > 0 {
					small = false
				}
			}
		}
		if small {
			break
		}
	}
	for ; s > 0; s-- {
		mul(next, sum, sum)
		sum, next = next, sum
	}
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v, _ := sum[i][n+j].Float64()
			l.Set(i, j, v)
		}
	}
	return l
}

// On stiff generators shaped like the compact model's pieces, with width
// directions 10²–4·10³ times their norm, the derivative must match a
// 300-bit reference to 1e-13 of its norm.
func TestFrechetMatchesBigFloatReference(t *testing.T) {
	if testing.Short() {
		t.Skip("300-bit reference exponentials")
	}
	cases := []struct {
		name                      string
		k, gv, gc, d, slope, f, r float64
	}{
		{"full interval, r=1e2", 128.2, 0.38, 0.32, 0.16, 250, 17, 1e2},
		{"full interval, r=4e3", 128.2, 0.44, 0.37, 0.20, 290, 22, 4e3},
		{"narrow channel, r=1e3", 128.2, 0.61, 0.47, 0.42, 210, 51, 1e3},
		{"sub-step, r=2e3", 6.41, 0.019, 0.016, 0.008, 12.5, 0.85, 2e3},
	}
	for _, c := range cases {
		a, e := augmentedPair(c.k, c.gv, c.gc, c.d, c.slope, c.f, c.r)
		_, l, err := ExpmFrechet(a, e)
		if err != nil {
			t.Fatal(err)
		}
		d := relErr(l, bigFrechet(a, e, 300))
		t.Logf("%s: ‖A‖ = %.3g, error %.2e", c.name, a.NormInf(), d)
		if !(d <= 1e-13) {
			t.Errorf("%s: derivative off the 300-bit reference by %.2e of its norm", c.name, d)
		}
	}
}

// The exponential half is Expm's own computation: equal under ==, warm
// or cold, whatever the direction.
func TestFrechetExpHalfIsExpm(t *testing.T) {
	g := lcg(17)
	var ws ExpmWS
	for trial := 0; trial < 8; trial++ {
		n := 2 + trial%5
		a := randDense(&g, n, 0.5*math.Pow(4, float64(trial%4)))
		e := randDense(&g, n, math.Pow(10, float64(trial)))
		want, err := Expm(a)
		if err != nil {
			t.Fatal(err)
		}
		ex, l, err := ws.Frechet(nil, nil, a, e)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.data {
			if ex.data[i] != want.data[i] {
				t.Fatalf("trial %d: exp half [%d] = %v, Expm %v", trial, i, ex.data[i], want.data[i])
			}
		}
		_, fresh, err := ExpmFrechet(a, e)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh.data {
			if l.data[i] != fresh.data[i] {
				t.Fatalf("trial %d: warm derivative [%d] = %v, fresh %v", trial, i, l.data[i], fresh.data[i])
			}
		}
	}
}

func TestFrechetRejectsBadInput(t *testing.T) {
	a := Identity(3)
	e := NewDense(3, 3)
	e.Set(1, 2, math.Inf(1))
	if _, _, err := ExpmFrechet(a, e); err == nil {
		t.Error("expected error for a non-finite direction")
	}
	if _, _, err := ExpmFrechet(a, NewDense(2, 2)); err == nil {
		t.Error("expected error for a mismatched direction")
	}
	a.Set(0, 0, math.NaN())
	if _, _, err := ExpmFrechet(a, NewDense(3, 3)); err == nil {
		t.Error("expected error for a non-finite generator")
	}
}

// The workspace Fréchet derivative must not allocate once warm, on a
// generator that needs squarings.
func TestFrechetWarmZeroAlloc(t *testing.T) {
	a, e := stiffPair(6, 1e4)
	var ws ExpmWS
	ex, l := NewDense(6, 6), NewDense(6, 6)
	if _, _, err := ws.Frechet(ex, l, a, e); err != nil {
		t.Fatal(err)
	}
	//chanmod:allocgate mat.ExpmWS.Frechet
	//chanmod:allocgate mat.ExpmWS.padeDerivative
	//chanmod:allocgate mat.ExpmWS.solveDerivative
	//chanmod:allocgate mat.ExpmWS.mulSum
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := ws.Frechet(ex, l, a, e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Frechet allocated %v times per run, want 0", allocs)
	}
}
