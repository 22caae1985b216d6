package control

import (
	"context"
	"fmt"
	"math"

	"repro/internal/batch"
	"repro/internal/compact"
	"repro/internal/mat"
	"repro/internal/microchannel"
	"repro/internal/optimize"
)

// Optimize solves the channel-modulation optimal control problem of the
// spec and returns the optimized design together with the joint model
// solve at the optimum.
func Optimize(spec *Spec) (*Result, error) {
	return OptimizeContext(context.Background(), spec)
}

// OptimizeContext is Optimize with caller-controlled cancellation:
// cancelling ctx stops the decoupled multi-channel optimizer between
// per-channel solves, and refuses to start any solve once cancelled (an
// individual channel solve, and the joint/single-channel solver, run to
// completion once started).
func OptimizeContext(ctx context.Context, spec *Spec) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := len(spec.Channels)
	if n == 1 || spec.Joint {
		return jointOptimize(spec)
	}
	return decoupledOptimize(ctx, spec)
}

// innerSolver maps the Solver enum to an optimize inner solver.
func innerSolver(spec *Spec) func(optimize.Objective, mat.Vec, optimize.Box, optimize.Options) (mat.Vec, float64, optimize.Stats, error) {
	switch spec.Solver {
	case SolverProjGrad:
		return optimize.ProjectedGradient
	case SolverNelderMead:
		return func(f optimize.Objective, x0 mat.Vec, box optimize.Box, o optimize.Options) (mat.Vec, float64, optimize.Stats, error) {
			budget := o.MaxIterations * (2*len(x0) + 8)
			return optimize.NelderMead(f, x0, box, optimize.NelderMeadOptions{
				MaxEvaluations: budget,
				Tol:            o.Tol,
			})
		}
	default:
		return optimize.LBFGSB
	}
}

// useAdjoint reports whether the spec's optimizer runs drive the inner
// solver with adjoint gradients. Nelder–Mead is derivative-free, so the
// gradient mode is ignored there.
func (s *Spec) useAdjoint() bool {
	return s.Gradient == GradientAdjoint && s.Solver != SolverNelderMead
}

// innerGradSolver maps the Solver enum to a gradient-aware inner solver.
func innerGradSolver(spec *Spec) func(optimize.GradObjective, mat.Vec, optimize.Box, optimize.Options) (mat.Vec, float64, optimize.Stats, error) {
	if spec.Solver == SolverProjGrad {
		return optimize.ProjectedGradientGrad
	}
	return optimize.LBFGSBGrad
}

// auglagRun dispatches one augmented-Lagrangian solve to the gradient-aware
// or finite-difference stack per the spec's gradient mode. gobj may be nil
// to force the FD path (derivative-free variants).
func auglagRun(spec *Spec, objective optimize.Objective, gobj optimize.GradObjective,
	cons []optimize.ConstraintSpec, x0 mat.Vec, box optimize.Box,
	feasTol float64, extraOuter int) (optimize.AugLagResult, error) {
	opts := optimize.AugLagOptions{
		OuterIterations: spec.outerIterations() + extraOuter,
		Inner:           spec.innerOptions(),
		FeasTol:         feasTol,
	}
	if gobj != nil && spec.useAdjoint() {
		opts.InnerGradSolver = innerGradSolver(spec)
		return optimize.AugmentedLagrangianGrad(gobj, cons, x0, box, opts)
	}
	opts.InnerSolver = innerSolver(spec)
	return optimize.AugmentedLagrangian(objective, cons, x0, box, opts)
}

// widthGradParams enumerates the adjoint parameter list of an n-channel,
// k-segment width design in decision-vector order.
func widthGradParams(n, k int) []compact.GradParam {
	params := make([]compact.GradParam, n*k)
	for c := 0; c < n; c++ {
		for s := 0; s < k; s++ {
			params[c*k+s] = compact.GradParam{Channel: c, Kind: compact.GradWidth, Segment: s}
		}
	}
	return params
}

func (s *Spec) innerOptions() optimize.Options {
	o := s.Inner
	if o.MaxIterations == 0 {
		o.MaxIterations = 60
	}
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	if o.GradStep == 0 {
		o.GradStep = 1e-4
	}
	return o
}

func (s *Spec) outerIterations() int {
	if s.OuterIterations == 0 {
		return 8
	}
	return s.OuterIterations
}

// widthsFromX maps normalized decision variables back to segment widths.
// The result is projected into the bounds: for irrational bound values,
// min + 1.0·(max−min) can exceed max by an ulp, which downstream strict
// validation would reject.
func widthsFromX(x mat.Vec, b microchannel.Bounds) []float64 {
	w := make([]float64, len(x))
	span := b.Max - b.Min
	for i, v := range x {
		w[i] = b.Project(b.Min + v*span)
	}
	return w
}

// xFromWidth maps a width to its normalized decision value.
func xFromWidth(w float64, b microchannel.Bounds) float64 {
	span := b.Max - b.Min
	if span <= 0 {
		return 0
	}
	return (w - b.Min) / span
}

// statsFrom packages the evaluator and augmented-Lagrangian counters of
// one optimization session into SolveStats (res may be nil for degenerate
// runs that never entered the solver).
func statsFrom(ev *compact.Evaluator, res *optimize.AugLagResult) SolveStats {
	st := ev.Stats()
	out := SolveStats{
		ModelSolves:         st.Solves,
		GradientEvaluations: st.GradientSolves,
		TransitionHits:      st.TransitionHits,
		TransitionMisses:    st.TransitionMisses,
		DerivHits:           st.DerivHits,
		DerivMisses:         st.DerivMisses,
	}
	if res != nil {
		out.OuterIterations = res.Outer
		out.InnerIterations = res.InnerIterations
		out.InnerEvaluations = res.Evaluations
	}
	return out
}

// jointOptimize solves the fully coupled problem over all channels: the
// decision vector stacks K normalized widths per channel.
//
// All model solves of one session go through one warm compact.Evaluator:
// the finite-difference inner loop perturbs one width segment per probe, so
// nearly every piece transition is served from the evaluator's memo instead
// of being re-propagated. Each jointOptimize call owns its evaluator
// (per-goroutine construction under the batch engine — no locking, and
// results stay bit-identical to fresh per-solve models).
func jointOptimize(spec *Spec) (*Result, error) {
	n := len(spec.Channels)
	k := spec.segments()
	dim := n * k
	ev := compact.NewEvaluator(spec.Params)

	evals := 0
	buildProfiles := func(x mat.Vec) ([]*microchannel.Profile, error) {
		profiles := make([]*microchannel.Profile, n)
		for c := 0; c < n; c++ {
			ws := widthsFromX(x[c*k:(c+1)*k], spec.Bounds)
			p, err := microchannel.NewProfile(ws, spec.Params.Length)
			if err != nil {
				return nil, err
			}
			profiles[c] = p
		}
		return profiles, nil
	}

	// Objective normalization: J at the initial design.
	x0 := make(mat.Vec, dim)
	for i := range x0 {
		x0[i] = xFromWidth(spec.initialWidth(), spec.Bounds)
	}
	profiles0, err := buildProfiles(x0)
	if err != nil {
		return nil, err
	}
	sol0, err := ev.SolveChannels(channelsFor(spec, profiles0))
	if err != nil {
		return nil, fmt.Errorf("control: initial solve: %w", err)
	}
	j0 := sol0.ObjectiveQ2()
	if j0 <= 0 {
		// Degenerate (zero heat): the initial design is already optimal.
		out, err := evaluateWith(ev, spec, profiles0)
		if err != nil {
			return nil, err
		}
		out.Stats = statsFrom(ev, nil)
		return out, nil
	}

	objective := func(x mat.Vec) (float64, error) {
		profiles, err := buildProfiles(x)
		if err != nil {
			return 0, err
		}
		evals++
		sol, err := ev.SolveChannels(channelsFor(spec, profiles))
		if err != nil {
			return 0, err
		}
		return sol.ObjectiveQ2() / j0, nil
	}

	// Adjoint variant of the objective: the gradient over all n·k width
	// segments is one forward solve plus one adjoint pass, chained through
	// the [0, 1] normalization w = min + v·span and the /j0 scaling.
	var gobj optimize.GradObjective
	if spec.useAdjoint() {
		gparams := widthGradParams(n, k)
		span := spec.Bounds.Max - spec.Bounds.Min
		gw := make(mat.Vec, dim)
		gobj = func(x mat.Vec, g mat.Vec) (float64, error) {
			if g == nil {
				return objective(x)
			}
			profiles, err := buildProfiles(x)
			if err != nil {
				return 0, err
			}
			evals++
			sol, err := ev.SolveGradient(channelsFor(spec, profiles), gparams, gw)
			if err != nil {
				return 0, err
			}
			for i := range g {
				g[i] = gw[i] * span / j0
			}
			return sol.ObjectiveQ2() / j0, nil
		}
	}

	cons := pressureConstraints(spec, buildProfiles)

	box, err := optimize.UniformBox(dim, 0, 1)
	if err != nil {
		return nil, err
	}
	res, err := auglagRun(spec, objective, gobj, cons, x0, box, 1e-3, 0)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	profiles, err := buildProfiles(res.X)
	if err != nil {
		return nil, err
	}
	out, err := evaluateWith(ev, spec, profiles)
	if err != nil {
		return nil, err
	}
	out.Evaluations = evals + 1
	out.MaxConstraintViolation = res.MaxViolation
	out.Stats = statsFrom(ev, &res)
	return out, nil
}

// pressureConstraints builds the ΔP constraint set of Eq. 9/10 for the
// joint problem: one inequality per channel, plus equalities tying every
// channel's drop to the first channel's when EqualPressure is set.
func pressureConstraints(spec *Spec, buildProfiles func(mat.Vec) ([]*microchannel.Profile, error)) []optimize.ConstraintSpec {
	n := len(spec.Channels)
	k := spec.segments()
	dpMax := spec.maxPressure()

	dropOf := func(x mat.Vec, c int) (float64, error) {
		ws := widthsFromX(x[c*k:(c+1)*k], spec.Bounds)
		return pressureDropWidths(spec, ws)
	}

	var cons []optimize.ConstraintSpec
	for c := 0; c < n; c++ {
		c := c
		cons = append(cons, optimize.ConstraintSpec{
			Name:  fmt.Sprintf("dp-max-%d", c),
			Kind:  optimize.LessEqual,
			Scale: dpMax,
			F: func(x mat.Vec) (float64, error) {
				dp, err := dropOf(x, c)
				if err != nil {
					return 0, err
				}
				return dp - dpMax, nil
			},
		})
	}
	if spec.EqualPressure && n > 1 {
		for c := 1; c < n; c++ {
			c := c
			cons = append(cons, optimize.ConstraintSpec{
				Name:  fmt.Sprintf("dp-equal-%d", c),
				Kind:  optimize.Equal,
				Scale: dpMax,
				F: func(x mat.Vec) (float64, error) {
					dp0, err := dropOf(x, 0)
					if err != nil {
						return 0, err
					}
					dpc, err := dropOf(x, c)
					if err != nil {
						return 0, err
					}
					return dpc - dp0, nil
				},
			})
		}
	}
	return cons
}

// pressureDropWidths evaluates the paper's Eq. 9 integral for a sampled
// width vector (per physical channel).
func pressureDropWidths(spec *Spec, widths []float64) (float64, error) {
	return pressureDrop(spec, widths)
}

// decoupledOptimize exploits the negligible lateral coupling: each channel
// is optimized independently against its own heat load (phase 1), then the
// equal-pressure constraint is restored by re-optimizing every channel to
// the common drop of the most demanding one (phase 2). The returned result
// always comes from one joint solve with lateral conduction included.
//
// Both phases are embarrassingly parallel — every per-channel solve reads
// the shared spec and writes only its own slot — so they fan out across
// the batch worker pool. Slot-indexed writes keep the outcome bit-identical
// to the serial loop.
func decoupledOptimize(ctx context.Context, spec *Spec) (*Result, error) {
	n := len(spec.Channels)
	profiles := make([]*microchannel.Profile, n)

	singleSpec := func(k int) *Spec {
		s := *spec
		s.Channels = []ChannelLoad{spec.Channels[k]}
		s.EqualPressure = false
		s.Joint = false
		return &s
	}

	// Phase 1: independent per-channel optimization with ΔP ≤ ΔPmax.
	// Each worker's jointOptimize call constructs its own evaluation
	// session, so transition caches are per-goroutine and lock-free.
	drops := make([]float64, n)
	evals := make([]int, n)
	stats := make([]SolveStats, n)
	err := batch.Run(ctx, n, func(_ context.Context, k int) error {
		res, err := jointOptimize(singleSpec(k))
		if err != nil {
			return fmt.Errorf("control: channel %d: %w", k, err)
		}
		profiles[k] = res.Profiles[0]
		drops[k] = res.PressureDrops[0]
		evals[k] = res.Evaluations
		stats[k] = res.Stats
		return nil
	})
	if err != nil {
		return nil, err
	}
	totalEvals := 0
	for _, e := range evals {
		totalEvals += e
	}

	// Phase 2: equalize the pressure drops at the level of the most
	// demanding channel (narrowing helps cooling, so the binding channel
	// sets the shared drop; the others gain cooling margin for free).
	if spec.EqualPressure && n > 1 {
		target := 0.0
		for _, d := range drops {
			if d > target {
				target = d
			}
		}
		eqEvals := make([]int, n)
		eqStats := make([]SolveStats, n)
		err := batch.Run(ctx, n, func(_ context.Context, k int) error {
			if math.Abs(drops[k]-target) <= 1e-3*target {
				return nil
			}
			res, err := equalPressureOptimize(singleSpec(k), target, profiles[k])
			if err != nil {
				return fmt.Errorf("control: channel %d equalization: %w", k, err)
			}
			profiles[k] = res.Profiles[0]
			eqEvals[k] = res.Evaluations
			eqStats[k] = res.Stats
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, e := range eqEvals {
			totalEvals += e
		}
		for _, s := range eqStats {
			stats = append(stats, s)
		}
	}

	out, err := Evaluate(spec, profiles)
	if err != nil {
		return nil, err
	}
	out.Evaluations = totalEvals + 1
	for _, s := range stats {
		out.Stats.add(s)
	}
	return out, nil
}

// equalPressureOptimize re-optimizes a single channel subject to an
// equality constraint ΔP = target, warm-started from a previous profile.
func equalPressureOptimize(spec *Spec, target float64, warm *microchannel.Profile) (*Result, error) {
	k := spec.segments()
	evals := 0
	ev := compact.NewEvaluator(spec.Params)

	buildProfile := func(x mat.Vec) (*microchannel.Profile, error) {
		return microchannel.NewProfile(widthsFromX(x, spec.Bounds), spec.Params.Length)
	}

	x0 := make(mat.Vec, k)
	warmR, err := warm.Resample(k)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		x0[i] = xFromWidth(warmR.Width(i), spec.Bounds)
	}

	p0, err := buildProfile(x0)
	if err != nil {
		return nil, err
	}
	sol0, err := ev.SolveChannels(channelsFor(spec, []*microchannel.Profile{p0}))
	if err != nil {
		return nil, err
	}
	j0 := sol0.ObjectiveQ2()
	if j0 <= 0 {
		j0 = 1
	}

	objective := func(x mat.Vec) (float64, error) {
		p, err := buildProfile(x)
		if err != nil {
			return 0, err
		}
		evals++
		sol, err := ev.SolveChannels(channelsFor(spec, []*microchannel.Profile{p}))
		if err != nil {
			return 0, err
		}
		return sol.ObjectiveQ2() / j0, nil
	}
	var gobj optimize.GradObjective
	if spec.useAdjoint() {
		gparams := widthGradParams(1, k)
		span := spec.Bounds.Max - spec.Bounds.Min
		gw := make(mat.Vec, k)
		gobj = func(x mat.Vec, g mat.Vec) (float64, error) {
			if g == nil {
				return objective(x)
			}
			p, err := buildProfile(x)
			if err != nil {
				return 0, err
			}
			evals++
			sol, err := ev.SolveGradient(channelsFor(spec, []*microchannel.Profile{p}), gparams, gw)
			if err != nil {
				return 0, err
			}
			for i := range g {
				g[i] = gw[i] * span / j0
			}
			return sol.ObjectiveQ2() / j0, nil
		}
	}
	cons := []optimize.ConstraintSpec{{
		Name:  "dp-equal-target",
		Kind:  optimize.Equal,
		Scale: target,
		F: func(x mat.Vec) (float64, error) {
			dp, err := pressureDrop(spec, widthsFromX(x, spec.Bounds))
			if err != nil {
				return 0, err
			}
			return dp - target, nil
		},
	}}

	box, err := optimize.UniformBox(k, 0, 1)
	if err != nil {
		return nil, err
	}
	res, err := auglagRun(spec, objective, gobj, cons, x0, box, 1e-3, 0)
	if err != nil {
		return nil, err
	}
	p, err := buildProfile(res.X)
	if err != nil {
		return nil, err
	}
	out, err := evaluateWith(ev, spec, []*microchannel.Profile{p})
	if err != nil {
		return nil, err
	}
	out.Evaluations = evals + 1
	out.MaxConstraintViolation = res.MaxViolation
	out.Stats = statsFrom(ev, &res)
	return out, nil
}
