package compact

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bvp"
	"repro/internal/mat"
)

// maxAbsRel returns the largest |a[i]−b[i]| relative to the largest |b|.
func maxAbsRel(a, b []float64) float64 {
	var scale, diff float64
	for i := range b {
		if v := math.Abs(b[i]); v > scale {
			scale = v
		}
	}
	if scale == 0 {
		scale = 1
	}
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > diff {
			diff = d
		}
	}
	return diff / scale
}

// rk4SubSteps is the reference's RK4 resolution in steps per dense sample:
// 3 200 steps over the length at the 400 dense samples.
const rk4SubSteps = 8

// rk4 advances x in place over [a, b] with n classical RK4 steps of the
// right-hand side f, calling sample (if not nil) after step i = 1 … n.
func rk4(f func(dst mat.Vec, z float64, x mat.Vec), a, b float64, x mat.Vec, n int, sample func(i int, x mat.Vec)) {
	k1, k2, k3, k4, tmp := mat.NewVec(len(x)), mat.NewVec(len(x)), mat.NewVec(len(x)), mat.NewVec(len(x)), mat.NewVec(len(x))
	h := (b - a) / float64(n)
	for i := 0; i < n; i++ {
		z := a + float64(i)*h
		f(k1, z, x)
		f(k2, z+0.5*h, x.AddScaledInto(tmp, 0.5*h, k1))
		f(k3, z+0.5*h, x.AddScaledInto(tmp, 0.5*h, k2))
		f(k4, z+h, x.AddScaledInto(tmp, h, k3))
		for j := range x {
			x[j] += h / 6 * (k1[j] + 2*k2[j] + 2*k3[j] + k4[j])
		}
		if sample != nil {
			sample(i+1, x)
		}
	}
}

// rk4Reference solves the model of chans in the form SolveChannels picks,
// with bvp.Solve on the evaluator's piece-aligned interfaces, but
// integrates each piece's governing equations by fixed-step RK4 instead of
// applying its exact maps: Transition propagates a basis, and Propagate
// records every rk4SubSteps-th step, so the reference samples the grid of
// the exact path.
func rk4Reference(t *testing.T, p Params, chans []Channel) *Result {
	t.Helper()
	ev := NewEvaluator(p)
	m := &Model{Params: p, Channels: chans}
	elim := len(chans) == 1
	dim := statePerChannel * len(chans)
	if elim {
		dim = elimDim
	}
	// piece returns the right-hand side of the piece [a, b] (without its
	// inputs when forced is false), from the coefficients at the piece
	// midpoint, and the piece's dense sample count.
	piece := func(a, b float64, forced bool) (func(dst mat.Vec, z float64, x mat.Vec), int, error) {
		mid := 0.5 * (a + b)
		pc := pieceCoeffs{
			c:          make([]Coefficients, len(chans)),
			fluxTop:    make([]float64, len(chans)),
			fluxBottom: make([]float64, len(chans)),
		}
		for k, ch := range chans {
			c, err := p.CoefficientsAt(ch.Width.At(mid), mid)
			if err != nil {
				return nil, 0, err
			}
			c.CvV *= ch.flowScale()
			pc.c[k] = c
			pc.fluxTop[k], pc.fluxBottom[k] = ch.FluxTop.At(mid), ch.FluxBottom.At(mid)
		}
		if elim {
			ch := chans[0]
			ent := &pieceEntry{c4: pc.c[0], f1: pc.fluxTop[0], f2: pc.fluxBottom[0],
				qinA: ch.FluxTop.CumulativeTo(a) + ch.FluxBottom.CumulativeTo(a)}
			return rhs4(ent, a, p.InletTemp, !forced), ev.pieceSteps4(a, b), nil
		}
		if !forced {
			clear(pc.fluxTop)
			clear(pc.fluxBottom)
		}
		return func(dst mat.Vec, _ float64, x mat.Vec) { m.derivative(dst, x, &pc) }, ev.pieceSteps5(a, b), nil
	}
	prob := &bvp.Problem{
		Dim:    dim,
		Length: p.Length,
		Propagate: func(a, b float64, x0 mat.Vec) (*bvp.Trajectory, error) {
			f, steps, err := piece(a, b, true)
			if err != nil {
				return nil, err
			}
			h := (b - a) / float64(steps)
			tr := &bvp.Trajectory{}
			tr.Append(a, x0)
			rk4(f, a, b, x0.Clone(), rk4SubSteps*steps, func(i int, x mat.Vec) {
				if i%rk4SubSteps == 0 {
					tr.Append(a+float64(i/rk4SubSteps)*h, x)
				}
			})
			tr.Z[steps] = b
			return tr, nil
		},
		Transition: func(a, b float64) (*mat.Dense, mat.Vec, error) {
			forced, steps, err := piece(a, b, true)
			if err != nil {
				return nil, nil, err
			}
			hom, _, err := piece(a, b, false)
			if err != nil {
				return nil, nil, err
			}
			psi := mat.NewVec(dim)
			rk4(forced, a, b, psi, rk4SubSteps*steps, nil)
			phi := mat.NewDense(dim, dim)
			for j := 0; j < dim; j++ {
				col := mat.NewVec(dim)
				col[j] = 1
				rk4(hom, a, b, col, rk4SubSteps*steps, nil)
				for r, v := range col {
					phi.Set(r, j, v)
				}
			}
			return phi, psi, nil
		},
		Interfaces: ev.interfaces(m.breakpoints(), m.shootingIntervals()),
	}
	if elim {
		prob.X0Base = mat.Vec{0, 0, 0, 0}
		prob.X0Modes = []mat.Vec{{1, 0, 0, 0}, {0, 1, 0, 0}}
		prob.TerminalZero = []int{2, 3}
	} else {
		prob.X0Base = mat.NewVec(dim)
		for k := range chans {
			base := statePerChannel * k
			prob.X0Base[base+idxTC] = p.InletTemp
			m1, m2 := mat.NewVec(dim), mat.NewVec(dim)
			m1[base+idxT1], m2[base+idxT2] = 1, 1
			prob.X0Modes = append(prob.X0Modes, m1, m2)
			prob.TerminalZero = append(prob.TerminalZero, base+idxQ1, base+idxQ2)
		}
	}
	sol, err := bvp.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if !elim {
		return m.newResult(sol)
	}
	res, err := ev.eliminatedResult(chans[0], sol)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Exact exponential propagation must agree with RK4 once RK4's steps are
// fine enough for its truncation error to vanish — the cross-validation
// that pins the closed-form piece maps to an independent integration of
// the governing equations, on both model forms.
func TestExpmCrossValidatesRK4FineSteps(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name  string
		chans []Channel
	}{
		{"eliminated", []Channel{testChannel(t, p, rng, 5, 3)}},
		{"joint2", []Channel{testChannel(t, p, rng, 4, 2), testChannel(t, p, rng, 3, 4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			re, err := NewEvaluator(p).SolveChannels(tc.chans)
			if err != nil {
				t.Fatal(err)
			}
			rr := rk4Reference(t, p, tc.chans)
			if len(re.Z) != len(rr.Z) {
				t.Fatalf("grid sizes differ: %d vs %d", len(re.Z), len(rr.Z))
			}
			for k := range re.Channels {
				for _, f := range []struct {
					name string
					a, b []float64
				}{
					{"T1", re.Channels[k].T1, rr.Channels[k].T1},
					{"T2", re.Channels[k].T2, rr.Channels[k].T2},
					{"Q1", re.Channels[k].Q1, rr.Channels[k].Q1},
					{"Q2", re.Channels[k].Q2, rr.Channels[k].Q2},
					{"TC", re.Channels[k].TC, rr.Channels[k].TC},
				} {
					if d := maxAbsRel(f.a, f.b); d > 1e-7 {
						t.Errorf("channel %d %s: expm vs fine RK4 rel diff %.3e", k, f.name, d)
					}
				}
			}
			jd := math.Abs(re.ObjectiveQ2()-rr.ObjectiveQ2()) / math.Abs(rr.ObjectiveQ2())
			if jd > 1e-8 {
				t.Errorf("objective: expm vs fine RK4 rel diff %.3e", jd)
			}
		})
	}
}

// widthFlowParams lists every width segment of every channel plus one flow
// parameter per channel.
func widthFlowParams(chans []Channel) []GradParam {
	var ps []GradParam
	for k, ch := range chans {
		for s := 0; s < ch.Width.Segments(); s++ {
			ps = append(ps, GradParam{Channel: k, Kind: GradWidth, Segment: s})
		}
		ps = append(ps, GradParam{Channel: k, Kind: GradFlow})
	}
	return ps
}

// fdGradient central-differences ObjectiveQ2 through the evaluator for the
// same parameter list SolveGradient takes.
func fdGradient(t *testing.T, ev *Evaluator, chans []Channel, params []GradParam) []float64 {
	t.Helper()
	solveJ := func(cs []Channel) float64 {
		r, err := ev.SolveChannels(cs)
		if err != nil {
			t.Fatal(err)
		}
		return r.ObjectiveQ2()
	}
	grad := make([]float64, len(params))
	for i, gp := range params {
		perturb := func(h float64) []Channel {
			cs := append([]Channel(nil), chans...)
			ch := cs[gp.Channel]
			switch gp.Kind {
			case GradWidth:
				prof := ch.Width.Clone()
				prof.SetWidth(gp.Segment, prof.Width(gp.Segment)+h)
				ch.Width = prof
			case GradFlow:
				ch.FlowScale = ch.flowScale() + h
			}
			cs[gp.Channel] = ch
			return cs
		}
		h := 1e-9
		if gp.Kind == GradFlow {
			h = 1e-6
		}
		grad[i] = (solveJ(perturb(h)) - solveJ(perturb(-h))) / (2 * h)
	}
	return grad
}

// The adjoint gradient must match central finite differences of the full
// solve, per width segment and per flow scale, on both model forms.
func TestSolveGradientMatchesFD(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(23))
	single := testChannel(t, p, rng, 6, 3)
	single.FlowScale = 1.2
	multi := []Channel{testChannel(t, p, rng, 4, 2), testChannel(t, p, rng, 5, 3)}
	multi[1].FlowScale = 0.8
	cases := []struct {
		name  string
		chans []Channel
	}{
		{"eliminated", []Channel{single}},
		{"joint2", multi},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev := NewEvaluator(p)
			params := widthFlowParams(tc.chans)
			grad := make([]float64, len(params))
			res, err := ev.SolveGradient(tc.chans, params, grad)
			if err != nil {
				t.Fatal(err)
			}
			want := fdGradient(t, ev, tc.chans, params)
			var scale float64
			for _, v := range want {
				scale = math.Max(scale, math.Abs(v))
			}
			for i, gp := range params {
				if d := math.Abs(grad[i] - want[i]); d > 1e-4*scale {
					t.Errorf("param %d (%v ch%d seg%d): adjoint %.8e, FD %.8e (diff %.2e of scale %.2e)",
						i, gp.Kind, gp.Channel, gp.Segment, grad[i], want[i], d, scale)
				}
			}

			// The forward solve embedded in the gradient is the plain solve.
			plain, err := ev.SolveChannels(tc.chans)
			if err != nil {
				t.Fatal(err)
			}
			resultsBitIdentical(t, res, plain)
		})
	}
}

// Piece-derivative memoization: an identical second gradient must hit the
// derivative cache for every piece, and return identical floats.
func TestSolveGradientMemoAndStats(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(5))
	chans := []Channel{testChannel(t, p, rng, 5, 2)}
	params := widthFlowParams(chans)
	ev := NewEvaluator(p)

	g1 := make([]float64, len(params))
	if _, err := ev.SolveGradient(chans, params, g1); err != nil {
		t.Fatal(err)
	}
	s1 := ev.Stats()
	if s1.GradientSolves != 1 {
		t.Fatalf("GradientSolves = %d, want 1", s1.GradientSolves)
	}
	if s1.DerivMisses == 0 {
		t.Fatal("first gradient recorded no derivative-cache misses")
	}
	if s1.DerivHits != 0 {
		t.Fatalf("first gradient recorded %d derivative-cache hits, want 0", s1.DerivHits)
	}

	g2 := make([]float64, len(params))
	if _, err := ev.SolveGradient(chans, params, g2); err != nil {
		t.Fatal(err)
	}
	s2 := ev.Stats()
	if s2.DerivMisses != s1.DerivMisses {
		t.Fatalf("second gradient recomputed derivatives: misses %d -> %d", s1.DerivMisses, s2.DerivMisses)
	}
	if s2.DerivHits != s1.DerivMisses {
		t.Fatalf("second gradient hits = %d, want %d", s2.DerivHits, s1.DerivMisses)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("gradient not deterministic under memoization: [%d] %g vs %g", i, g1[i], g2[i])
		}
	}
}

// Guard rails: the adjoint path validates its parameter list.
func TestSolveGradientGuards(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(3))
	chans := []Channel{testChannel(t, p, rng, 3, 2)}
	grad := make([]float64, 1)

	ev := NewEvaluator(p)
	bad := []struct {
		name   string
		params []GradParam
		grad   []float64
	}{
		{"len mismatch", []GradParam{{Kind: GradFlow}}, make([]float64, 2)},
		{"channel range", []GradParam{{Channel: 1, Kind: GradFlow}}, grad},
		{"segment range", []GradParam{{Kind: GradWidth, Segment: 99}}, grad},
		{"kind", []GradParam{{Kind: GradKind(7)}}, grad},
	}
	for _, tc := range bad {
		if _, err := ev.SolveGradient(chans, tc.params, tc.grad); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// BenchmarkGradientFD is the finite-difference inner loop the adjoint
// replaces: K+1 warm-evaluator solves per gradient of a K-segment design.
func BenchmarkGradientFD(b *testing.B) {
	p := DefaultParams()
	const segs = 20
	base := benchChannel(b, p, segs)
	ev := NewEvaluator(p)
	fd := func() {
		r0, err := ev.SolveEliminated(base)
		if err != nil {
			b.Fatal(err)
		}
		j0 := r0.ObjectiveQ2()
		for s := 0; s < segs; s++ {
			prof := base.Width.Clone()
			prof.SetWidth(s, prof.Width(s)+1e-8)
			r, err := ev.SolveEliminated(Channel{Width: prof, FluxTop: base.FluxTop, FluxBottom: base.FluxBottom})
			if err != nil {
				b.Fatal(err)
			}
			_ = (r.ObjectiveQ2() - j0) / 1e-8
		}
	}
	fd()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd()
	}
}

// BenchmarkGradientAdjoint is the same K-segment gradient as one forward
// solve plus one adjoint pass over memoized piece derivatives.
func BenchmarkGradientAdjoint(b *testing.B) {
	p := DefaultParams()
	const segs = 20
	base := benchChannel(b, p, segs)
	ev := NewEvaluator(p)
	params := make([]GradParam, segs)
	for s := range params {
		params[s] = GradParam{Kind: GradWidth, Segment: s}
	}
	grad := make([]float64, segs)
	if _, err := ev.SolveGradient([]Channel{base}, params, grad); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.SolveGradient([]Channel{base}, params, grad); err != nil {
			b.Fatal(err)
		}
	}
}
