package control

import (
	"fmt"

	"repro/internal/compact"
	"repro/internal/mat"
	"repro/internal/microchannel"
	"repro/internal/optimize"
)

// OptimizeMinPumping solves the dual problem the paper mentions in
// Sec. IV-B-2: minimize the pumping effort (the common pressure drop)
// subject to an upper bound on the thermal gradient, instead of minimizing
// the gradient under a pressure budget. Single-channel specs only (the
// multi-channel dual couples through the shared reservoir and is not
// needed for any paper figure).
//
// The returned design satisfies Gradient ≤ maxGradientK (within the
// augmented-Lagrangian feasibility tolerance) at the smallest achievable
// ΔP.
func OptimizeMinPumping(spec *Spec, maxGradientK float64) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(spec.Channels) != 1 {
		return nil, fmt.Errorf("control: min-pumping variant supports exactly 1 channel, have %d",
			len(spec.Channels))
	}
	if maxGradientK <= 0 {
		return nil, fmt.Errorf("control: non-positive gradient bound %g", maxGradientK)
	}
	k := spec.segments()
	evals := 0
	ev := compact.NewEvaluator(spec.Params)

	buildProfile := func(x mat.Vec) (*microchannel.Profile, error) {
		return microchannel.NewProfile(widthsFromX(x, spec.Bounds), spec.Params.Length)
	}
	gradientOf := func(x mat.Vec) (float64, error) {
		p, err := buildProfile(x)
		if err != nil {
			return 0, err
		}
		evals++
		sol, err := ev.SolveChannels(channelsFor(spec, []*microchannel.Profile{p}))
		if err != nil {
			return 0, err
		}
		return sol.Gradient(), nil
	}

	// Normalize the ΔP objective by the max-width drop (the cheapest
	// possible design).
	wideDrop, err := pressureDrop(spec, []float64{spec.Bounds.Max})
	if err != nil {
		return nil, err
	}
	objective := func(x mat.Vec) (float64, error) {
		dp, err := pressureDrop(spec, widthsFromX(x, spec.Bounds))
		if err != nil {
			return 0, err
		}
		return dp / wideDrop, nil
	}
	cons := []optimize.ConstraintSpec{{
		Name:  "gradient-cap",
		Kind:  optimize.LessEqual,
		Scale: maxGradientK,
		F: func(x mat.Vec) (float64, error) {
			g, err := gradientOf(x)
			if err != nil {
				return 0, err
			}
			return g - maxGradientK, nil
		},
	}}

	// Seed from the max-width design: cheapest ΔP, likely infeasible on
	// the gradient; the multiplier loop pulls it feasible.
	x0 := make(mat.Vec, k)
	for i := range x0 {
		x0[i] = xFromWidth(spec.Bounds.Max, spec.Bounds)
	}
	box, err := optimize.UniformBox(k, 0, 1)
	if err != nil {
		return nil, err
	}
	// Always the FD stack (nil gobj): the binding quantity here is the
	// thermal gradient Tmax−Tmin, a max-type functional outside the smooth
	// ∫‖q‖² objective the adjoint differentiates.
	res, err := auglagRun(spec, objective, nil, cons, x0, box, 2e-3,
		4) // feasibility needs more multiplier updates
	if err != nil {
		return nil, fmt.Errorf("control: min-pumping: %w", err)
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

// FlowAllocationResult extends Result with the resolved per-channel flow
// multipliers of the clustering baseline.
type FlowAllocationResult struct {
	Result
	// FlowScales are the per-channel flow multipliers (mean 1 by
	// construction).
	FlowScales []float64
}

// OptimizeFlowAllocation implements the flow-rate-clustering baseline of
// Qian et al. that the paper's related work discusses: channel widths stay
// UNIFORM (at the given width), and instead each channel column receives
// its own coolant flow rate, customizing the cooling effort per column.
// The total coolant flow is held at the nominal N·V̇ (same pump), each
// multiplier confined to [minScale, maxScale].
//
// This baseline can rebalance ACROSS channels but cannot counter the
// along-channel coolant heat-up the paper's modulation targets — the
// comparison experiment (EXPERIMENTS.md, A4) quantifies exactly that gap.
func OptimizeFlowAllocation(spec *Spec, width, minScale, maxScale float64) (*FlowAllocationResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Bounds.Contains(width) {
		return nil, fmt.Errorf("control: width %g outside bounds", width)
	}
	profiles := make([]*microchannel.Profile, len(spec.Channels))
	for k := range profiles {
		p, err := microchannel.NewUniform(width, spec.Params.Length, 1)
		if err != nil {
			return nil, err
		}
		profiles[k] = p
	}
	return OptimizeFlowAllocationProfiles(spec, profiles, minScale, maxScale)
}

// OptimizeFlowAllocationProfiles is OptimizeFlowAllocation over an
// arbitrary fixed width design: the widths stay as given (e.g. the
// modulated profiles of a design-time optimum) and only the per-channel
// flow multipliers move. This is the per-epoch decision problem of the
// runtime controller, where the fabricated geometry is immutable and the
// coolant valves are the only actuators left.
func OptimizeFlowAllocationProfiles(spec *Spec, profiles []*microchannel.Profile, minScale, maxScale float64) (*FlowAllocationResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(profiles) != len(spec.Channels) {
		return nil, fmt.Errorf("control: %d profiles for %d channels", len(profiles), len(spec.Channels))
	}
	if !(minScale > 0) || !(maxScale >= minScale) {
		return nil, fmt.Errorf("control: invalid flow-scale range [%g, %g]", minScale, maxScale)
	}
	n := len(spec.Channels)

	evals := 0
	ev := compact.NewEvaluator(spec.Params)
	// Profiles are fixed here; only the flow scales vary per evaluation,
	// so one model is built up front and mutated in place.
	model := buildModel(spec, profiles)
	buildSolve := func(scales mat.Vec) (*FlowAllocationResult, error) {
		for k := range model.Channels {
			model.Channels[k].FlowScale = scales[k]
		}
		evals++
		sol, err := ev.Solve(model.Channels)
		if err != nil {
			return nil, err
		}
		dps, err := model.PressureDrops(spec.PressureModel)
		if err != nil {
			return nil, err
		}
		return &FlowAllocationResult{
			Result: Result{
				Profiles:      profiles,
				Solution:      sol,
				Objective:     sol.ObjectiveQ2(),
				GradientK:     sol.Gradient(),
				PeakK:         sol.PeakTemperature(),
				PressureDrops: dps,
			},
			FlowScales: scales.Clone(),
		}, nil
	}

	if n == 1 {
		// Degenerate: with a fixed total flow there is nothing to allocate.
		res, err := buildSolve(mat.Vec{1})
		if err != nil {
			return nil, err
		}
		res.Evaluations = evals
		res.Stats = statsFrom(ev, nil)
		return res, nil
	}

	x0 := make(mat.Vec, n)
	x0.Fill(1)
	j0 := 0.0
	if first, err := buildSolve(x0); err == nil {
		j0 = first.Objective
	} else {
		return nil, err
	}
	if j0 <= 0 {
		j0 = 1
	}

	objective := func(x mat.Vec) (float64, error) {
		res, err := buildSolve(x)
		if err != nil {
			return 0, err
		}
		return res.Objective / j0, nil
	}
	// Adjoint variant: the decision variables are exactly the per-channel
	// flow scales, so the model's GradFlow derivatives apply directly.
	var gobj optimize.GradObjective
	if spec.useAdjoint() {
		gparams := make([]compact.GradParam, n)
		for c := range gparams {
			gparams[c] = compact.GradParam{Channel: c, Kind: compact.GradFlow}
		}
		gw := make(mat.Vec, n)
		gobj = func(x mat.Vec, g mat.Vec) (float64, error) {
			if g == nil {
				return objective(x)
			}
			for k := range model.Channels {
				model.Channels[k].FlowScale = x[k]
			}
			evals++
			sol, err := ev.SolveGradient(model.Channels, gparams, gw)
			if err != nil {
				return 0, err
			}
			for i := range g {
				g[i] = gw[i] / j0
			}
			return sol.ObjectiveQ2() / j0, nil
		}
	}
	// Total-flow budget: Σ scale_k = n (same pump as the nominal design);
	// its gradient is the all-ones vector.
	cons := []optimize.ConstraintSpec{{
		Name:  "total-flow",
		Kind:  optimize.Equal,
		Scale: float64(n),
		F: func(x mat.Vec) (float64, error) {
			return x.Sum() - float64(n), nil
		},
		Grad: func(x mat.Vec, grad mat.Vec) (float64, error) {
			if grad != nil {
				grad.Fill(1)
			}
			return x.Sum() - float64(n), nil
		},
	}}
	box, err := optimize.UniformBox(n, minScale, maxScale)
	if err != nil {
		return nil, err
	}
	res, err := auglagRun(spec, objective, gobj, cons, x0, box, 1e-3, 0)
	if err != nil {
		return nil, fmt.Errorf("control: flow allocation: %w", err)
	}
	out, err := buildSolve(res.X)
	if err != nil {
		return nil, err
	}
	out.Evaluations = evals
	out.MaxConstraintViolation = res.MaxViolation
	out.Stats = statsFrom(ev, &res)
	return out, nil
}
