// Package props is the property side of the physics fuzzer: a catalog
// of invariants that must hold for every valid scenario, whatever the
// seed that generated it. The checks are grounded in structure the
// compact model provably has (see DESIGN.md §11 for the derivations and
// the tolerance rationale):
//
//   - Energy balance: with adiabatic outer surfaces, the aggregate
//     coolant enthalpy rise Σ cv·V̇·(TC(d)−TC(0)) equals the injected
//     heat exactly.
//   - Flow monotonicity: more coolant flow strictly lowers the total
//     coolant (outlet) temperature rise.
//   - Power monotonicity and linearity: the model is linear in the heat
//     forcing at fixed widths, so scaling every flux by s scales all
//     temperatures-above-inlet by exactly s — peak temperature is
//     strictly monotone in total power.
//   - Mirror symmetry: reflecting the floorplan across the flow axis
//     reverses the channel order; the lateral coupling graph is a path,
//     so gradient, peak and objective are invariant and the per-channel
//     coolant rises reverse.
//   - Optimality: the optimizer starts at the max-width uniform design,
//     so the optimized modulation is never worse than any feasible
//     uniform baseline, and its pressure drops respect the budget.
//   - Gradient agreement: the adjoint gradient of the modulation
//     objective matches a central finite difference of the full solve at
//     a non-uniform interior design.
package props

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/compact"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/microchannel"
	"repro/internal/scenario"
)

// Tolerances bound each invariant's acceptable numerical slack. All are
// relative unless noted; Default documents the rationale for each value.
type Tolerances struct {
	// EnergyRel bounds |absorbed − injected| / injected.
	EnergyRel float64
	// MonotonicRel is the slack on strict monotonic decrease/increase
	// checks (the true margins are 20–25%, so this only absorbs floating
	// point).
	MonotonicRel float64
	// LinearityRel bounds the deviation from exact forcing linearity of
	// the temperatures above inlet.
	LinearityRel float64
	// SymmetryRel bounds the mirror-symmetry deviation of gradient, peak
	// above inlet, objective and reversed coolant rises.
	SymmetryRel float64
	// OptimalityRel is the slack on "optimal never worse than a feasible
	// uniform baseline".
	OptimalityRel float64
	// FeasibilityRel is the slack on the optimized design's pressure
	// budget (the augmented-Lagrangian outer loop is truncated in corpus
	// scenarios, so active constraints converge only to this order).
	FeasibilityRel float64
	// GradientRel bounds the deviation of the adjoint gradient from a
	// central finite difference of the full solve, relative to the
	// gradient's inf-norm.
	GradientRel float64
	// TransientEngineRel bounds the reduced-order (MOR) transient
	// engine's peak/gradient series deviation from the factor-once LU
	// engine, relative to each series' dynamic range over the run, plus
	// a small absolute floor for near-constant series. The two engines
	// discretize time differently — backward Euler vs exact exponential
	// propagation on the projected system — so their gap is dominated by
	// the LU engine's own first-order O(Δt) truncation bias, not by
	// projection error: on the benchmark duty cycle the gap is 0.22 K of
	// a 5 K swing (~4.4%) at Δt = 0.125 ms and halves with Δt, while the
	// steady states agree to 0.02 K. The corpus runs at Δt = 0.1 ms and
	// allows 15% of the swing — more than triple margin.
	TransientEngineRel float64
}

// Default returns the corpus tolerances. The conservation and symmetry
// identities are exact in the model but pass through the superposition-
// shooting BVP solve, whose stiff vertical-coupling modes amplify float
// rounding to ~1e-5 relative on the harder generated stacks: energy
// balance gets 1e-4 (an order of margin), and the linearity/symmetry
// identities 1e-3 (two orders) — still far below any real modeling
// asymmetry. Strictness slack is 1e-9 against true margins of 20–25%,
// and feasibility is 1e-2 for truncated augmented-Lagrangian outer
// loops. The adjoint gradient is exact for the discrete objective, so its
// disagreement with central differences is dominated by the FD truncation
// and the solve rounding above amplified by the 1/(2h) division: the
// curated cases in internal/compact pass at 1e-4; the corpus gets 1e-3
// (an order of margin) for the harder generated stacks.
func Default() Tolerances {
	return Tolerances{
		EnergyRel:          1e-4,
		MonotonicRel:       1e-9,
		LinearityRel:       1e-3,
		SymmetryRel:        1e-3,
		OptimalityRel:      1e-6,
		FeasibilityRel:     1e-2,
		GradientRel:        1e-3,
		TransientEngineRel: 0.15,
	}
}

// relClose reports whether a and b agree to tol relative with an
// absolute floor.
func relClose(a, b, tol, floor float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))+floor
}

// injectedPower sums the spec's heat inputs in W.
func injectedPower(spec *control.Spec) float64 {
	var q float64
	for _, ch := range spec.Channels {
		q += ch.FluxTop.Total() + ch.FluxBottom.Total()
	}
	return q
}

// maxWidthBaseline evaluates the uniform design at the upper width bound
// (always pressure-feasible; one model solve).
func maxWidthBaseline(spec *control.Spec) (*control.Result, error) {
	return control.Baseline(spec, spec.Bounds.Max)
}

// Steady checks the cheap steady-state invariants — energy balance, flow
// and power monotonicity, forcing linearity, and (for floorplan
// scenarios) mirror symmetry — at the max-width uniform design. Four
// model solves per scenario; all found violations are joined into one
// error.
func Steady(f *scenario.File, tol Tolerances) error {
	spec, err := f.Spec()
	if err != nil {
		return fmt.Errorf("props: %w", err)
	}
	base, err := maxWidthBaseline(spec)
	if err != nil {
		return fmt.Errorf("props: baseline: %w", err)
	}
	var errs []error
	inlet := spec.Params.InletTemp

	// Energy balance.
	cvV := spec.Params.Coolant.VolumetricHeatCapacity() * spec.Params.ClusterFlowRate()
	absorbed := base.Solution.TotalHeatAbsorbed(cvV)
	injected := injectedPower(spec)
	if injected <= 0 {
		errs = append(errs, fmt.Errorf("props: energy: non-positive injected power %g W", injected))
	} else if math.Abs(absorbed-injected)/injected > tol.EnergyRel {
		errs = append(errs, fmt.Errorf("props: energy: coolant absorbs %.9g W of %.9g W injected (rel err %.3g > %g)",
			absorbed, injected, math.Abs(absorbed-injected)/injected, tol.EnergyRel))
	}

	// Flow monotonicity: +25% coolant flow must strictly lower the total
	// coolant rise (the exact model predicts ×1/1.25).
	rise := func(r *control.Result) float64 {
		var t float64
		for k := range r.Solution.Channels {
			t += r.Solution.CoolantRise(k)
		}
		return t
	}
	moreFlow := *spec
	moreFlow.Params.FlowRatePerChannel *= 1.25
	fast, err := maxWidthBaseline(&moreFlow)
	if err != nil {
		errs = append(errs, fmt.Errorf("props: flow baseline: %w", err))
	} else if r0, r1 := rise(base), rise(fast); !(r1 < r0*(1-tol.MonotonicRel)) {
		errs = append(errs, fmt.Errorf("props: flow: total coolant rise %.9g K at 1.25× flow not below %.9g K at 1× flow",
			r1, r0))
	}

	// Power monotonicity and linearity: scaling every flux by 1.25 scales
	// peak-above-inlet by exactly 1.25.
	const s = 1.25
	scaled := *spec
	scaled.Channels = make([]control.ChannelLoad, len(spec.Channels))
	for k, ch := range spec.Channels {
		scaled.Channels[k] = control.ChannelLoad{
			FluxTop:    ch.FluxTop.Scale(s),
			FluxBottom: ch.FluxBottom.Scale(s),
		}
	}
	hot, err := maxWidthBaseline(&scaled)
	if err != nil {
		errs = append(errs, fmt.Errorf("props: power baseline: %w", err))
	} else {
		a0 := base.PeakK - inlet
		a1 := hot.PeakK - inlet
		if !(a1 > a0*(1+tol.MonotonicRel)) {
			errs = append(errs, fmt.Errorf("props: power: peak above inlet %.9g K at 1.25× power not above %.9g K at 1×",
				a1, a0))
		}
		if !relClose(a1, s*a0, tol.LinearityRel, 1e-9) {
			errs = append(errs, fmt.Errorf("props: linearity: peak above inlet %.9g K at 1.25× power, want %.9g K (1.25× of %.9g)",
				a1, s*a0, a0))
		}
	}

	// Mirror symmetry, floorplan scenarios only.
	if f.Floorplan != nil {
		if err := mirrorSymmetry(f, spec, base, tol); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// MirrorAcrossChannels returns a copy of the file with both dies
// reflected across the flow axis (y → width − y), which reverses the
// rasterized channel order while leaving every per-channel load intact.
func MirrorAcrossChannels(f *scenario.File) *scenario.File {
	out := *f
	fp := *f.Floorplan
	fp.Top = mirrorDie(fp.Top)
	fp.Bottom = mirrorDie(fp.Bottom)
	out.Floorplan = &fp
	return &out
}

func mirrorDie(d scenario.Die) scenario.Die {
	out := d
	out.Blocks = make([]scenario.Block, len(d.Blocks))
	for i, b := range d.Blocks {
		b.YMM = d.WidthMM - b.YMM - b.HMM
		out.Blocks[i] = b
	}
	return out
}

// mirrorSymmetry checks the floorplan reflection invariant against the
// already-solved base result (one extra model solve).
func mirrorSymmetry(f *scenario.File, spec *control.Spec, base *control.Result, tol Tolerances) error {
	mf := MirrorAcrossChannels(f)
	mspec, err := mf.Spec()
	if err != nil {
		return fmt.Errorf("props: symmetry: mirrored spec: %w", err)
	}
	mirror, err := maxWidthBaseline(mspec)
	if err != nil {
		return fmt.Errorf("props: symmetry: mirrored baseline: %w", err)
	}
	inlet := spec.Params.InletTemp
	var errs []error
	pairs := []struct {
		name string
		a, b float64
	}{
		{"gradient", base.GradientK, mirror.GradientK},
		{"peak above inlet", base.PeakK - inlet, mirror.PeakK - inlet},
		{"objective", base.Objective, mirror.Objective},
	}
	for _, p := range pairs {
		if !relClose(p.a, p.b, tol.SymmetryRel, 1e-9) {
			errs = append(errs, fmt.Errorf("props: symmetry: %s %.9g vs %.9g mirrored", p.name, p.a, p.b))
		}
	}
	n := len(base.Solution.Channels)
	if len(mirror.Solution.Channels) != n {
		errs = append(errs, fmt.Errorf("props: symmetry: %d channels vs %d mirrored", n, len(mirror.Solution.Channels)))
	} else {
		for k := 0; k < n; k++ {
			a := base.Solution.CoolantRise(k)
			b := mirror.Solution.CoolantRise(n - 1 - k)
			if !relClose(a, b, tol.SymmetryRel, 1e-9) {
				errs = append(errs, fmt.Errorf("props: symmetry: channel %d coolant rise %.9g K vs mirrored channel %d %.9g K",
					k, a, n-1-k, b))
			}
		}
	}
	return errors.Join(errs...)
}

// gradientProbeCap bounds the parameters GradientAgreement probes per
// scenario: each probe costs two extra model solves, and wide corpus
// stacks would otherwise dominate the sweep.
const gradientProbeCap = 12

// GradientAgreement checks the adjoint gradient of the modulation
// objective ∫‖∇T‖² against finite differences of the full solve, at a
// deterministic non-uniform width design strictly inside the scenario's
// bounds (interior, so no bound projection; non-uniform, so no accidental
// symmetry zeroes gradient entries). It probes a deterministic subset of
// parameters — first/middle/last width segment plus the flow scale per
// channel, strided down to gradientProbeCap overall — and compares
// against the gradient's inf-norm.
func GradientAgreement(f *scenario.File, tol Tolerances) error {
	p, err := newGradientProbe(f)
	if err != nil {
		return err
	}
	grad, err := p.adjoint()
	if err != nil {
		return err
	}
	vs, err := p.check(grad, tol)
	if err != nil {
		return err
	}
	var errs []error
	for i, v := range vs {
		if !v.ok {
			gp := p.params[i]
			errs = append(errs, fmt.Errorf("props: gradient: ch%d %v seg%d: adjoint %.8e vs FD %.8e (diff %.2e of scale %.2e)",
				gp.Channel, gp.Kind, gp.Segment, grad[i], v.fd, v.diff, v.scale))
		}
	}
	return errors.Join(errs...)
}

// gradientProbe is GradientAgreement's fixture: the probe design, the
// probed parameters and the evaluator that solves both sides.
type gradientProbe struct {
	chans  []compact.Channel
	params []compact.GradParam
	ev     *compact.Evaluator
}

func newGradientProbe(f *scenario.File) (*gradientProbe, error) {
	spec, err := f.Spec()
	if err != nil {
		return nil, fmt.Errorf("props: %w", err)
	}
	k := spec.Segments
	if k == 0 {
		k = control.DefaultSegments
	}
	span := spec.Bounds.Max - spec.Bounds.Min

	// Golden-ratio striding gives every (channel, segment) its own width
	// in [min + span/4, min + 3·span/4].
	const phi = 0.6180339887498949
	chans := make([]compact.Channel, len(spec.Channels))
	for c, load := range spec.Channels {
		ws := make([]float64, k)
		for s := range ws {
			frac := math.Mod(phi*float64(c*k+s+1), 1)
			ws[s] = spec.Bounds.Min + span*(0.25+0.5*frac)
		}
		prof, err := microchannel.NewProfile(ws, spec.Params.Length)
		if err != nil {
			return nil, fmt.Errorf("props: gradient: profile: %w", err)
		}
		chans[c] = compact.Channel{Width: prof, FluxTop: load.FluxTop, FluxBottom: load.FluxBottom}
	}

	var params []compact.GradParam
	for c := range chans {
		prev := -1
		for _, s := range []int{0, k / 2, k - 1} {
			if s == prev {
				continue // k == 1 or 2 collapses the probe segments
			}
			prev = s
			params = append(params, compact.GradParam{Channel: c, Kind: compact.GradWidth, Segment: s})
		}
		params = append(params, compact.GradParam{Channel: c, Kind: compact.GradFlow})
	}
	if len(params) > gradientProbeCap {
		stride := (len(params) + gradientProbeCap - 1) / gradientProbeCap
		kept := params[:0]
		for i := 0; i < len(params); i += stride {
			kept = append(kept, params[i])
		}
		params = kept
	}
	return &gradientProbe{chans: chans, params: params, ev: compact.NewEvaluator(spec.Params, spec.Steps)}, nil
}

// adjoint returns the adjoint gradient of the probed parameters.
func (p *gradientProbe) adjoint() ([]float64, error) {
	grad := make([]float64, len(p.params))
	if _, err := p.ev.SolveGradient(p.chans, p.params, grad); err != nil {
		return nil, fmt.Errorf("props: gradient: adjoint solve: %w", err)
	}
	return grad, nil
}

// fdVerdict is the finite-difference side of one probed parameter.
type fdVerdict struct {
	// fd is the estimate closest to the adjoint entry, diff its distance
	// and scale the gradient's inf-norm.
	fd, diff, scale float64
	// ok reports diff within the bound; byFit that only a least-squares
	// fit came within it, every step of the ladder having missed.
	ok, byFit bool
}

// check compares grad, a gradient of the probed parameters, with finite
// differences of the full solve.
func (p *gradientProbe) check(grad []float64, tol Tolerances) ([]fdVerdict, error) {
	solve := func(cs []compact.Channel) (*compact.Result, error) {
		r, err := p.ev.SolveChannels(cs)
		if err != nil {
			return nil, fmt.Errorf("props: gradient: FD solve: %w", err)
		}
		return r, nil
	}
	base, err := solve(p.chans)
	if err != nil {
		return nil, err
	}
	// The base solve's grid is copied: the evaluator reuses its buffers.
	baseZ := append([]float64(nil), base.Z...)
	// Normalize against the gradient's inf-norm (known before any FD
	// work, so the per-parameter ladder below can stop early).
	var scale float64
	for _, g := range grad {
		scale = math.Max(scale, math.Abs(g))
	}
	bound := tol.GradientRel*scale + 1e-12
	vs := make([]fdVerdict, len(p.params))
	for i, gp := range p.params {
		// J at the parameter moved by h, and whether that solve ran on
		// the base solve's grid.
		at := func(h float64) (j float64, sameGrid bool, err error) {
			cs := append([]compact.Channel(nil), p.chans...)
			ch := cs[gp.Channel]
			switch gp.Kind {
			case compact.GradWidth:
				prof := ch.Width.Clone()
				prof.SetWidth(gp.Segment, prof.Width(gp.Segment)+h)
				ch.Width = prof
			case compact.GradFlow:
				if ch.FlowScale == 0 {
					ch.FlowScale = 1 // zero means the nominal scale
				}
				ch.FlowScale += h
			}
			cs[gp.Channel] = ch
			r, err := solve(cs)
			if err != nil {
				return 0, false, err
			}
			return r.ObjectiveQ2(), slices.Equal(r.Z, baseZ), nil
		}
		// FD accuracy is nonmonotonic in h here: besides the usual
		// truncation-vs-rounding tradeoff, J(w) steps where a width
		// crosses a threshold of the shooting-interval count (taken from
		// the design's narrowest width, see compact's shootingIntervals),
		// because the stitched grid and the trapezoid objective change
		// with it; a stencil straddling a step is contaminated by δ/(2h).
		// The standard remedy is a step ladder: the adjoint passes if ANY
		// step validates it — a jump at distance d only contaminates
		// steps with h > d, and the smallest steps resolve the smooth
		// derivative to ~1e-6 relative when clean. The third rung is a
		// fourth-order five-point stencil at a large step, for the
		// strongly curved stacks where second-order truncation and solve
		// noise leave no clean window for the plain central difference.
		type rung struct {
			h    float64
			five bool // five-point O(h⁴) stencil instead of central O(h²)
		}
		ladder := []rung{{1e-8, false}, {1e-6, false}, {3e-6, true}, {3e-8, false}, {1e-9, false}} // widths are tens of µm
		windows := fitWidthWindows
		if gp.Kind == compact.GradFlow {
			ladder = []rung{{1e-6, false}, {1e-5, false}, {3e-4, true}, {3e-6, false}, {1e-7, false}} // flow scales are O(1)
			windows = fitFlowWindows
		}
		v := fdVerdict{fd: math.NaN(), diff: math.Inf(1), scale: scale}
		for _, r := range ladder {
			var fd float64
			jp, _, err := at(r.h)
			if err != nil {
				return nil, err
			}
			jm, _, err := at(-r.h)
			if err != nil {
				return nil, err
			}
			if r.five {
				jp2, _, err := at(2 * r.h)
				if err != nil {
					return nil, err
				}
				jm2, _, err := at(-2 * r.h)
				if err != nil {
					return nil, err
				}
				fd = (-jp2 + 8*jp - 8*jm + jm2) / (12 * r.h)
			} else {
				fd = (jp - jm) / (2 * r.h)
			}
			if d := math.Abs(grad[i] - fd); d < v.diff {
				v.diff, v.fd = d, fd
			}
			if v.diff <= bound {
				break
			}
		}
		// When no rung agrees, every step is bound by either rounding or
		// truncation: on stiff narrow-channel stacks J carries 1e-6 to
		// 1e-5 relative rounding, which swamps the small steps, while the
		// large ones see J's curvature. A least-squares cubic through many
		// solves over a wider window averages the rounding down and
		// models the curvature; samples on another shooting grid than the
		// base solve's are dropped, so a grid step inside the window does
		// not bias the fit.
		for _, w := range windows {
			if v.diff <= bound {
				break
			}
			fd, err := cubicFitSlope(at, w)
			if err != nil {
				return nil, err
			}
			if d := math.Abs(grad[i] - fd); d < v.diff {
				v.diff, v.fd = d, fd
				v.byFit = d <= bound
			}
		}
		v.ok = v.diff <= bound
		vs[i] = v
	}
	return vs, nil
}

// Half-widths of the least-squares windows, in metres of width and in
// units of flow scale, tried in order: each is four times the last, which
// divides the slope error J's rounding causes by four, while the cubic
// still models J's curvature over the wider window.
var (
	fitWidthWindows = []float64{1e-7, 4e-7, 1.6e-6}
	fitFlowWindows  = []float64{1e-4, 4e-4, 1.6e-3}
)

// fitSamples is the number of solves per least-squares window.
const fitSamples = 41

// cubicFitSlope returns the slope at 0 of the least-squares cubic through
// J(h) sampled at fitSamples evenly spaced h in [−w, w], keeping only the
// samples solved on the base solve's grid. It returns NaN when fewer than
// eight samples remain.
func cubicFitSlope(at func(h float64) (float64, bool, error), w float64) (float64, error) {
	// Normal equations in t = h/w ∈ [−1, 1] for J ≈ c0 + c1·t + c2·t² + c3·t³.
	ata := mat.NewDense(4, 4)
	atb := make(mat.Vec, 4)
	kept := 0
	for k := 0; k < fitSamples; k++ {
		t := -1 + 2*float64(k)/float64(fitSamples-1)
		j, sameGrid, err := at(t * w)
		if err != nil {
			return 0, err
		}
		if !sameGrid {
			continue
		}
		kept++
		pow := [4]float64{1, t, t * t, t * t * t}
		for r := 0; r < 4; r++ {
			atb[r] += pow[r] * j
			for c := 0; c < 4; c++ {
				ata.Add(r, c, pow[r]*pow[c])
			}
		}
	}
	if kept < 8 {
		return math.NaN(), nil
	}
	c, err := mat.Solve(ata, atb)
	if err != nil {
		return math.NaN(), nil
	}
	return c[1] / w, nil
}

// Transient cross-validation geometry: a plant small enough that every
// traced corpus seed can afford two full engine runs, integrated at a
// step small enough that the LU engine's O(Δt) bias stays well inside
// TransientEngineRel (see that field's rationale).
const (
	transientNX       = 24
	transientDt       = 1e-4
	transientSteps    = 60
	transientFloorK   = 0.05
	transientActScale = 1.5
)

// TransientEngineAgreement cross-validates the reduced-order transient
// engine (grid.EngineMOR) against the factor-once LU engine on the
// scenario's power trace: both plants integrate the same trace from the
// same cold start at the max-width uniform design, including two mid-run
// flow-scale actuations with `Refresh` — the second returning to the
// original operating point — so the reduced basis must survive
// re-projection in both directions. The peak and gradient series must
// agree within TransientEngineRel of their dynamic range. Scenarios
// without a trace have no transient experiment and skip (return nil).
func TransientEngineAgreement(f *scenario.File, tol Tolerances) error {
	if f.Trace == nil {
		return nil
	}
	rs, err := f.RuntimeSpec()
	if err != nil {
		return fmt.Errorf("props: transient: %w", err)
	}
	spec := rs.Spec
	n := len(spec.Channels)
	p := spec.Params
	clusterW := p.ClusterWidth()
	chOf := func(y float64) int {
		k := int(y / clusterW)
		if k < 0 {
			k = 0
		}
		if k >= n {
			k = n - 1
		}
		return k
	}

	run := func(eng grid.TransientEngine) (peak, grad []float64, err error) {
		scale := 1.0
		stack := &grid.Stack{
			Cfg: grid.Config{
				Params:  p,
				LengthX: p.Length,
				WidthY:  float64(n) * clusterW,
				NX:      transientNX,
				NY:      n,
			},
			PowerTop: func(x, y float64) float64 {
				return rs.Trace.LoadsAt(0)[chOf(y)].Top.At(x) / clusterW
			},
			PowerBottom: func(x, y float64) float64 {
				return rs.Trace.LoadsAt(0)[chOf(y)].Bottom.At(x) / clusterW
			},
			Width:     func(x, y float64) float64 { return spec.Bounds.Max },
			FlowScale: func(x, y float64) float64 { return scale },
		}
		ws, err := stack.NewTransientWorkspace(grid.TransientConfig{Dt: transientDt, Engine: eng})
		if err != nil {
			return nil, nil, err
		}
		topF := func(x, y, t float64) float64 {
			return rs.Trace.LoadsAt(t)[chOf(y)].Top.At(x) / clusterW
		}
		bottomF := func(x, y, t float64) float64 {
			return rs.Trace.LoadsAt(t)[chOf(y)].Bottom.At(x) / clusterW
		}
		for i := 0; i < transientSteps; i++ {
			switch i {
			case transientSteps / 3:
				scale = transientActScale
				if err := ws.Refresh(); err != nil {
					return nil, nil, err
				}
			case 2 * transientSteps / 3:
				scale = 1.0
				if err := ws.Refresh(); err != nil {
					return nil, nil, err
				}
			}
			if err := ws.Step(topF, bottomF); err != nil {
				return nil, nil, err
			}
			peak = append(peak, ws.PeakTemperature())
			grad = append(grad, ws.Gradient())
		}
		return peak, grad, nil
	}

	luPeak, luGrad, err := run(grid.EngineDirect)
	if err != nil {
		return fmt.Errorf("props: transient: lu engine: %w", err)
	}
	morPeak, morGrad, err := run(grid.EngineMOR)
	if err != nil {
		return fmt.Errorf("props: transient: mor engine: %w", err)
	}

	var errs []error
	check := func(name string, lu, mor []float64) {
		lo, hi, worst := math.Inf(1), math.Inf(-1), 0.0
		at := 0
		for i := range lu {
			lo = math.Min(lo, lu[i])
			hi = math.Max(hi, lu[i])
			if d := math.Abs(lu[i] - mor[i]); d > worst {
				worst, at = d, i
			}
		}
		if bound := tol.TransientEngineRel*(hi-lo) + transientFloorK; worst > bound {
			errs = append(errs, fmt.Errorf("props: transient: %s series diverges: |lu−mor| = %.4g K at step %d (lu %.6g, mor %.6g), tolerance %.4g K for a %.4g K swing",
				name, worst, at, lu[at], mor[at], bound, hi-lo))
		}
	}
	check("peak", luPeak, morPeak)
	check("gradient", luGrad, morGrad)
	return errors.Join(errs...)
}

// Optimality runs the scenario's three-way comparison and checks the
// optimizer invariants. This is the expensive check (a full optimize per
// scenario); corpus runs that already hold a Comparison — e.g. replies
// from engine compare jobs — should use OptimalityFromComparison
// instead.
func Optimality(f *scenario.File, tol Tolerances) error {
	spec, err := f.Spec()
	if err != nil {
		return fmt.Errorf("props: %w", err)
	}
	cmp, err := core.Compare(spec)
	if err != nil {
		return fmt.Errorf("props: compare: %w", err)
	}
	return OptimalityFromComparison(spec, cmp, tol)
}

// OptimalityFromComparison checks the optimizer invariants on an
// existing three-way comparison of the spec: the optimized modulation is
// never worse (higher objective) than a pressure-feasible uniform
// baseline, and the optimized design respects the pressure budget.
func OptimalityFromComparison(spec *control.Spec, cmp *core.Comparison, tol Tolerances) error {
	budget := spec.MaxPressure
	var errs []error
	feasible := func(r *control.Result) bool {
		for _, dp := range r.PressureDrops {
			if dp > budget*(1+tol.FeasibilityRel) {
				return false
			}
		}
		return true
	}
	if !feasible(cmp.Optimal) {
		errs = append(errs, fmt.Errorf("props: optimality: optimized max ΔP %.6g Pa exceeds budget %.6g Pa by more than %g rel",
			cmp.Optimal.MaxPressureDrop(), budget, tol.FeasibilityRel))
	}
	for _, u := range []struct {
		name string
		r    *control.Result
	}{{"max-width", cmp.MaxWidth}, {"min-width", cmp.MinWidth}} {
		if !feasible(u.r) {
			continue // infeasible uniform baselines may undercut the constrained optimum
		}
		if cmp.Optimal.Objective > u.r.Objective*(1+tol.OptimalityRel) {
			errs = append(errs, fmt.Errorf("props: optimality: optimized objective %.9g above feasible %s uniform %.9g",
				cmp.Optimal.Objective, u.name, u.r.Objective))
		}
	}
	return errors.Join(errs...)
}
