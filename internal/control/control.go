// Package control implements the paper's optimal channel-modulation
// technique (Sec. IV): the channel width functions wC(z) are the control
// variables, discretized as piecewise-constant segments (the direct
// sequential method of Sec. IV-C), and chosen to minimize the thermal
// gradient cost
//
//	J = ∫₀ᵈ ‖q‖² dz                                   (Eq. 7, via ‖T′‖²∝‖q‖²)
//
// subject to the analytical state-space model (package compact), the
// fabrication bounds wCmin ≤ wC(z) ≤ wCmax (Eq. 8), the per-channel
// pressure-drop budget ΔPi ≤ ΔPmax (Eq. 9, Darcy–Weisbach) and equal
// pressure drops across channels sharing a reservoir (Eq. 10).
//
// The NLP is solved with the augmented-Lagrangian + projected-L-BFGS stack
// of package optimize. Decision variables are normalized to [0, 1] per
// segment so that finite-difference steps and solver tolerances are well
// conditioned regardless of the micrometre-scale widths. Objective
// gradients come from the compact model's exact adjoint pass by default
// (one forward solve plus one adjoint sweep per gradient, Spec.Gradient);
// finite differences remain available as an escape hatch and ablation
// baseline.
//
// For multi-channel 3D-MPSoC problems the optimizer exploits a measured
// property of the model: lateral conduction between modeled channel
// columns (ĝlat ≈ 6.5e-3 W/m·K) is four orders of magnitude below the
// vertical coolant coupling (ĝv ≈ 50–220 W/m·K), so the joint problem
// separates per channel to excellent accuracy. Per-channel problems are
// optimized independently (each a 4-state BVP), the equal-ΔP coupling is
// restored in a second phase, and the final report always comes from one
// joint multi-channel solve including lateral conduction. Set Joint to
// force the exact coupled optimization (used by the tests to validate the
// decoupling on small stacks).
package control

import (
	"errors"
	"fmt"

	"repro/internal/compact"
	"repro/internal/convection"
	"repro/internal/microchannel"
	"repro/internal/optimize"
	"repro/internal/units"
)

// Solver selects the inner NLP solver (the ablation of experiment A3).
type Solver int

const (
	// SolverLBFGSB is the default projected quasi-Newton solver.
	SolverLBFGSB Solver = iota
	// SolverProjGrad is the projected-gradient baseline.
	SolverProjGrad
	// SolverNelderMead is the derivative-free baseline.
	SolverNelderMead
)

// String names the solver.
func (s Solver) String() string {
	switch s {
	case SolverLBFGSB:
		return "lbfgsb"
	case SolverProjGrad:
		return "projected-gradient"
	case SolverNelderMead:
		return "nelder-mead"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// Gradient selects how the gradient-based inner solvers obtain objective
// gradients (the -gradient=adjoint|fd escape hatch).
type Gradient int

const (
	// GradientAdjoint is the default: each gradient is one forward solve
	// plus one adjoint pass over memoized piece derivatives — K+1× fewer
	// model solves than finite differences at K width segments.
	GradientAdjoint Gradient = iota
	// GradientFD restores the finite-difference inner loop (the escape
	// hatch and the ablation baseline of the perf experiments).
	GradientFD
)

// String names the gradient mode.
func (g Gradient) String() string {
	switch g {
	case GradientAdjoint:
		return "adjoint"
	case GradientFD:
		return "fd"
	default:
		return fmt.Sprintf("Gradient(%d)", int(g))
	}
}

// ChannelLoad is the heat input of one modeled channel column.
type ChannelLoad struct {
	// FluxTop and FluxBottom are the per-unit-length heat inputs of the
	// two active layers (W/m, cluster scaled).
	FluxTop, FluxBottom *compact.Flux
}

// Spec describes one channel-modulation optimization problem.
type Spec struct {
	// Params holds the stack geometry and materials (Table I).
	Params compact.Params
	// Channels carries the heat loads, one per modeled column.
	Channels []ChannelLoad
	// Bounds are the fabrication width bounds (Eq. 8).
	Bounds microchannel.Bounds
	// Segments is the number of piecewise-constant width segments per
	// channel (the control discretization K). Zero selects 20.
	Segments int
	// MaxPressure is ΔPmax in Pa (Eq. 9). Zero selects Table I's 10 bar.
	MaxPressure float64
	// EqualPressure enforces ΔPi = ΔPj across channels (Eq. 10).
	// Meaningful only for multi-channel specs.
	EqualPressure bool
	// PressureModel selects the ΔP integrand (default: the paper's Eq. 9).
	PressureModel convection.PressureModel
	// Solver selects the inner NLP solver.
	Solver Solver
	// Gradient selects adjoint (default) or finite-difference gradients
	// for the gradient-based inner solvers; the derivative-free
	// Nelder–Mead and the min-pumping variant ignore it.
	Gradient Gradient
	// Joint forces exact coupled optimization of all channels at once.
	Joint bool
	// Inner configures the inner solver. Zero values select tuned
	// defaults.
	Inner optimize.Options
	// OuterIterations bounds the augmented-Lagrangian outer loop (0 → 8).
	OuterIterations int
	// InitialWidth seeds the optimization (0 selects the upper bound,
	// which is always pressure-feasible).
	InitialWidth float64
}

// DefaultSegments is the control discretization used by the experiments.
const DefaultSegments = 20

// Validate reports the first inconsistency in the spec.
func (s *Spec) Validate() error {
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if len(s.Channels) == 0 {
		return errors.New("control: spec has no channels")
	}
	for k, ch := range s.Channels {
		if ch.FluxTop == nil || ch.FluxBottom == nil {
			return fmt.Errorf("control: channel %d has nil flux", k)
		}
	}
	return s.validateSettings()
}

// ValidateSettings is Validate without the channel loads: it checks
// everything but Channels, in Validate's order, so a caller can check a
// problem's settings before it builds the loads.
func (s *Spec) ValidateSettings() error {
	if err := s.Params.Validate(); err != nil {
		return err
	}
	return s.validateSettings()
}

func (s *Spec) validateSettings() error {
	if err := s.Bounds.Validate(); err != nil {
		return err
	}
	if s.Bounds.Max >= s.Params.Pitch {
		return fmt.Errorf("control: width bound %s >= pitch %s",
			units.Length(s.Bounds.Max), units.Length(s.Params.Pitch))
	}
	if s.Segments < 0 {
		return fmt.Errorf("control: negative segment count %d", s.Segments)
	}
	if s.MaxPressure < 0 {
		return fmt.Errorf("control: negative pressure budget %g", s.MaxPressure)
	}
	if s.InitialWidth != 0 && !s.Bounds.Contains(s.InitialWidth) {
		return fmt.Errorf("control: initial width %s outside bounds", units.Length(s.InitialWidth))
	}
	return nil
}

func (s *Spec) segments() int {
	if s.Segments == 0 {
		return DefaultSegments
	}
	return s.Segments
}

func (s *Spec) maxPressure() float64 {
	if s.MaxPressure == 0 {
		return units.Bar(10)
	}
	return s.MaxPressure
}

func (s *Spec) initialWidth() float64 {
	if s.InitialWidth == 0 {
		return s.Bounds.Max
	}
	return s.InitialWidth
}

// Result carries the outcome of an optimization or baseline evaluation.
type Result struct {
	// Profiles are the resolved width profiles, one per channel.
	Profiles []*microchannel.Profile
	// Solution is the joint compact-model solve at the resolved widths
	// (including lateral conduction).
	Solution *compact.Result
	// Objective is the raw cost J = ∫‖q‖²dz at the solution (W²·m).
	Objective float64
	// GradientK is the thermal gradient Tmax−Tmin in kelvin.
	GradientK float64
	// PeakK is the maximum silicon temperature in kelvin.
	PeakK float64
	// PressureDrops are the per-physical-channel ΔP values in Pa.
	PressureDrops []float64
	// Evaluations counts compact-model solves spent.
	Evaluations int
	// MaxConstraintViolation is the worst relative constraint violation.
	MaxConstraintViolation float64
	// Stats details the solver work behind the result.
	Stats SolveStats
}

// SolveStats aggregates the solver work behind a Result: how many model
// solves the optimizer spent, how the iteration budget split between the
// augmented-Lagrangian outer loop and the inner solver, and how the
// evaluator's piece-transition cache performed. For decoupled multi-channel
// runs the counters sum over the per-channel sessions.
type SolveStats struct {
	// ModelSolves counts compact-model solves (objective and constraint
	// evaluations, finite-difference probes, and final reports).
	ModelSolves int
	// OuterIterations counts augmented-Lagrangian multiplier updates.
	OuterIterations int
	// InnerIterations counts inner-solver iterations over all outer rounds.
	InnerIterations int
	// InnerEvaluations counts objective evaluations by the inner solver
	// (including finite-difference gradient probes).
	InnerEvaluations int
	// GradientEvaluations counts adjoint gradient solves — one forward
	// solve plus one adjoint pass each; zero in finite-difference mode.
	GradientEvaluations int
	// TransitionHits and TransitionMisses count evaluator piece-transition
	// cache lookups; a hit skips the piece's matrix exponentials.
	TransitionHits, TransitionMisses uint64
	// DerivHits and DerivMisses count piece-derivative cache lookups made
	// by the adjoint gradient path; a hit reuses a memoized Fréchet
	// derivative of the piece exponential.
	DerivHits, DerivMisses uint64
}

// add accumulates o into s (the decoupled per-channel reduction).
func (s *SolveStats) add(o SolveStats) {
	s.ModelSolves += o.ModelSolves
	s.OuterIterations += o.OuterIterations
	s.InnerIterations += o.InnerIterations
	s.InnerEvaluations += o.InnerEvaluations
	s.GradientEvaluations += o.GradientEvaluations
	s.TransitionHits += o.TransitionHits
	s.TransitionMisses += o.TransitionMisses
	s.DerivHits += o.DerivHits
	s.DerivMisses += o.DerivMisses
}

// MaxPressureDrop returns the largest per-channel pressure drop.
func (r *Result) MaxPressureDrop() float64 {
	var m float64
	for _, p := range r.PressureDrops {
		if p > m {
			m = p
		}
	}
	return m
}

// pressureDrop evaluates the spec's pressure model over a sampled width
// vector for one physical channel.
func pressureDrop(spec *Spec, widths []float64) (float64, error) {
	return convection.PressureDrop(
		spec.Params.Coolant, spec.Params.FlowRatePerChannel,
		widths, spec.Params.ChannelHeight, spec.Params.Length,
		spec.PressureModel)
}

// channelsFor binds the spec's heat loads to the given width profiles.
func channelsFor(spec *Spec, profiles []*microchannel.Profile) []compact.Channel {
	chans := make([]compact.Channel, len(spec.Channels))
	for k, load := range spec.Channels {
		chans[k] = compact.Channel{
			Width:      profiles[k],
			FluxTop:    load.FluxTop,
			FluxBottom: load.FluxBottom,
		}
	}
	return chans
}

// buildModel assembles the joint compact model for the given profiles.
func buildModel(spec *Spec, profiles []*microchannel.Profile) *compact.Model {
	return &compact.Model{Params: spec.Params, Channels: channelsFor(spec, profiles)}
}

// Evaluate solves the joint model at the given width profiles and packages
// the metrics. It is the common path for baselines and final reports.
func Evaluate(spec *Spec, profiles []*microchannel.Profile) (*Result, error) {
	return evaluateWith(nil, spec, profiles)
}

// evaluateWith is Evaluate optionally reusing a warm evaluation session
// (results are bit-identical either way; the warm path only skips repeated
// transition-map propagation). A nil ev solves from scratch.
func evaluateWith(ev *compact.Evaluator, spec *Spec, profiles []*microchannel.Profile) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(profiles) != len(spec.Channels) {
		return nil, fmt.Errorf("control: %d profiles for %d channels", len(profiles), len(spec.Channels))
	}
	for k, p := range profiles {
		if err := p.Validate(spec.Bounds.Min, spec.Bounds.Max); err != nil {
			return nil, fmt.Errorf("control: channel %d: %w", k, err)
		}
	}
	model := buildModel(spec, profiles)
	if ev == nil {
		ev = compact.NewEvaluator(spec.Params)
	}
	// Always the coupled 5-state solve: final reports include lateral
	// conduction even for single-column specs.
	sol, err := ev.Solve(model.Channels)
	if err != nil {
		return nil, err
	}
	dps, err := model.PressureDrops(spec.PressureModel)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Profiles:      profiles,
		Solution:      sol,
		Objective:     sol.ObjectiveQ2(),
		GradientK:     sol.Gradient(),
		PeakK:         sol.PeakTemperature(),
		PressureDrops: dps,
		Evaluations:   1,
		Stats:         SolveStats{ModelSolves: 1},
	}
	return res, nil
}

// Baseline evaluates a uniform-width design (the paper's min-width and
// max-width comparison cases).
func Baseline(spec *Spec, width float64) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Bounds.Contains(width) {
		return nil, fmt.Errorf("control: baseline width %s outside bounds", units.Length(width))
	}
	profiles := make([]*microchannel.Profile, len(spec.Channels))
	for k := range profiles {
		p, err := microchannel.NewUniform(width, spec.Params.Length, spec.segments())
		if err != nil {
			return nil, err
		}
		profiles[k] = p
	}
	return Evaluate(spec, profiles)
}
