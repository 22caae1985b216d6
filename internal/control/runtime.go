package control

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/batch"
	"repro/internal/compact"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/microchannel"
	"repro/internal/optimize"
	"repro/internal/power"
)

// RuntimeSpec describes a closed-loop runtime thermal-management
// experiment in the style of Qian et al. (JLPEA 2011): a fabricated
// (fixed-width) liquid-cooled stack runs a time-varying power trace on
// the transient grid plant, and a controller re-optimizes the
// per-channel coolant flow allocation at every control epoch using the
// fast compact model as its internal plant. The experiment always runs
// two arms over the same trace — uniform flow (the static design) and
// the epoch controller — so the value of runtime re-optimization is the
// difference between the arms.
type RuntimeSpec struct {
	// Spec carries geometry, bounds, solver choice and the base channel
	// loads. The channel count must match the trace.
	Spec *Spec
	// Trace is the per-channel power schedule driving both arms.
	Trace *power.Trace
	// Profiles is the fixed width design (one per channel). nil runs a
	// design-time optimization against the trace's time-average loads
	// first — the paper's static-optimal modulation — and uses that.
	Profiles []*microchannel.Profile
	// Dt is the plant integration step in seconds (0 → 1 ms).
	Dt float64
	// Epoch is the control period in seconds (0 → 10·Dt). It is rounded
	// to a whole number of plant steps.
	Epoch float64
	// Horizon is the simulated span in seconds (0 → two trace
	// durations). It is rounded up to a whole number of epochs.
	Horizon float64
	// FlowScaleMin and FlowScaleMax bound the per-channel flow
	// multipliers (0, 0 → 0.5 and 2). The controller holds the total
	// flow at the nominal N·V̇, so the pump does the same work as the
	// static arm.
	FlowScaleMin, FlowScaleMax float64
	// NX is the plant grid resolution along the flow (0 → 40).
	NX int
	// Engine selects the transient plant's linear-algebra engine (the
	// zero value is the factor-once direct LU; grid.EngineMOR runs both
	// arms on the reduced-order plant).
	Engine grid.TransientEngine
	// ReoptimizeWidths additionally re-optimizes the width profiles at
	// every epoch — physically impossible on fabricated silicon, but a
	// useful upper bound on what any runtime actuation could achieve.
	ReoptimizeWidths bool
}

// runtime defaults and the per-epoch decision budgets. Epoch decisions
// run many times per experiment, so they use deliberately small
// augmented-Lagrangian budgets; the compact model is the controller's
// internal plant, not the judge (the grid plant is).
const (
	defaultRuntimeNX    = 40
	epochOuterIters     = 3
	epochInnerIters     = 20
	epochWidthSegments  = 8
	runtimeFlowScaleMin = 0.5
	runtimeFlowScaleMax = 2.0
)

func (rs *RuntimeSpec) dt() float64 {
	if rs.Dt == 0 {
		return 1e-3
	}
	return rs.Dt
}

func (rs *RuntimeSpec) epochSteps() int {
	if rs.Epoch == 0 {
		return 10
	}
	n := int(math.Round(rs.Epoch / rs.dt()))
	if n < 1 {
		n = 1
	}
	return n
}

func (rs *RuntimeSpec) horizon() float64 {
	if rs.Horizon > 0 {
		return rs.Horizon
	}
	return 2 * rs.Trace.Duration()
}

func (rs *RuntimeSpec) scaleRange() (float64, float64) {
	if rs.FlowScaleMin == 0 && rs.FlowScaleMax == 0 {
		return runtimeFlowScaleMin, runtimeFlowScaleMax
	}
	return rs.FlowScaleMin, rs.FlowScaleMax
}

func (rs *RuntimeSpec) nx() int {
	if rs.NX > 0 {
		return rs.NX
	}
	return defaultRuntimeNX
}

// PlantResolution returns the effective grid resolution of the transient
// plant (defaults resolved), for reporting.
func (rs *RuntimeSpec) PlantResolution() (nx, ny int) {
	return rs.nx(), len(rs.Spec.Channels)
}

// Validate reports the first inconsistency.
func (rs *RuntimeSpec) Validate() error {
	if rs.Spec == nil {
		return fmt.Errorf("control: runtime spec has no base spec")
	}
	if err := rs.Spec.Validate(); err != nil {
		return err
	}
	if err := rs.Trace.Validate(); err != nil {
		return err
	}
	if rs.Trace.Channels() != len(rs.Spec.Channels) {
		return fmt.Errorf("control: trace has %d channels, spec has %d",
			rs.Trace.Channels(), len(rs.Spec.Channels))
	}
	if err := rs.ValidateController(); err != nil {
		return err
	}
	if rs.Profiles != nil && len(rs.Profiles) != len(rs.Spec.Channels) {
		return fmt.Errorf("control: %d profiles for %d channels",
			len(rs.Profiles), len(rs.Spec.Channels))
	}
	return nil
}

// ValidateController is Validate's check of the controller settings
// (timing and flow-scale range), which need neither the spec nor the
// trace.
func (rs *RuntimeSpec) ValidateController() error {
	if rs.Dt < 0 || rs.Epoch < 0 || rs.Horizon < 0 {
		return fmt.Errorf("control: negative runtime timing (dt %g, epoch %g, horizon %g)",
			rs.Dt, rs.Epoch, rs.Horizon)
	}
	lo, hi := rs.scaleRange()
	if !(lo > 0) || !(hi >= lo) {
		return fmt.Errorf("control: invalid flow-scale range [%g, %g]", lo, hi)
	}
	if lo > 1 || hi < 1 {
		return fmt.Errorf("control: flow-scale range [%g, %g] must contain 1 (total flow is conserved)", lo, hi)
	}
	return nil
}

// RuntimeSeries is one arm's per-step trajectory.
type RuntimeSeries struct {
	// Times are the step instants in seconds (including t = 0).
	Times mat.Vec
	// PeakK and GradientK are the silicon metrics at those instants.
	PeakK, GradientK mat.Vec
}

// MaxGradient returns the worst thermal gradient over the trajectory.
func (s *RuntimeSeries) MaxGradient() float64 { return seriesMax(s.GradientK) }

// MaxPeak returns the worst silicon temperature over the trajectory.
func (s *RuntimeSeries) MaxPeak() float64 { return seriesMax(s.PeakK) }

// MeanGradient returns the time-average thermal gradient.
func (s *RuntimeSeries) MeanGradient() float64 {
	if len(s.GradientK) == 0 {
		return 0
	}
	return s.GradientK.Sum() / float64(len(s.GradientK))
}

func seriesMax(v mat.Vec) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// EpochDecision records one controller actuation.
type EpochDecision struct {
	// Time is the epoch start in seconds.
	Time float64
	// FlowScales are the applied per-channel multipliers.
	FlowScales []float64
	// PredictedGradientK is the compact-model gradient the controller
	// expected from this actuation (its internal-plant estimate).
	PredictedGradientK float64
	// Widths are the applied profiles when ReoptimizeWidths is set (nil
	// otherwise).
	Widths []*microchannel.Profile
}

// RuntimeResult carries both arms of a runtime experiment.
type RuntimeResult struct {
	// Profiles is the fixed width design both arms run.
	Profiles []*microchannel.Profile
	// Static is the uniform-flow arm.
	Static RuntimeSeries
	// Controlled is the epoch-controller arm.
	Controlled RuntimeSeries
	// Epochs are the controller's decisions.
	Epochs []EpochDecision
	// Engine is the transient plant engine both arms ran.
	Engine grid.TransientEngine
	// ReducedDim is the reduced plant's subspace dimension when Engine
	// is grid.EngineMOR (0 for the full-order engines).
	ReducedDim int
}

// GradientImprovement returns the relative reduction of the worst-case
// gradient, controlled vs static — the experiment's headline number.
func (r *RuntimeResult) GradientImprovement() float64 {
	base := r.Static.MaxGradient()
	if base == 0 {
		return 0
	}
	return (base - r.Controlled.MaxGradient()) / base
}

// RunRuntime executes the runtime-control experiment.
func RunRuntime(rs *RuntimeSpec) (*RuntimeResult, error) {
	return RunRuntimeContext(context.Background(), rs)
}

// RunRuntimeContext is RunRuntime with cancellation between epochs (a
// started epoch — plant steps plus one allocation solve — runs to
// completion).
func RunRuntimeContext(ctx context.Context, rs *RuntimeSpec) (*RuntimeResult, error) {
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	profiles := rs.Profiles
	if profiles == nil {
		static, err := rs.staticDesign()
		if err != nil {
			return nil, err
		}
		profiles = static
	}

	res := &RuntimeResult{Profiles: profiles}

	// Static arm: uniform flow over the whole horizon.
	staticSeries, _, dim, err := rs.runArm(ctx, profiles, nil)
	if err != nil {
		return nil, fmt.Errorf("control: runtime static arm: %w", err)
	}
	res.Static = *staticSeries
	res.Engine = rs.Engine
	res.ReducedDim = dim

	// Controlled arm: re-decide flow scales at each epoch boundary.
	controlled, epochs, _, err := rs.runArm(ctx, profiles, rs.decide)
	if err != nil {
		return nil, fmt.Errorf("control: runtime controlled arm: %w", err)
	}
	res.Controlled = *controlled
	res.Epochs = epochs
	return res, nil
}

// TransientRun is the outcome of a static-actuation transient
// simulation: the plant integrated over the trace with fixed profiles and
// uniform flow, no controller in the loop.
type TransientRun struct {
	// Profiles is the width design the plant ran.
	Profiles []*microchannel.Profile
	// Series is the per-step trajectory.
	Series RuntimeSeries
	// Engine is the transient plant engine the run used.
	Engine grid.TransientEngine
	// ReducedDim is the reduced plant's subspace dimension when Engine
	// is grid.EngineMOR (0 for the full-order engines).
	ReducedDim int
}

// SimulateTransient integrates the transient plant over the trace with
// static actuation only (the open-loop arm of the runtime experiment).
// A nil rs.Profiles designs the widths against the trace's time-average
// loads first, exactly like RunRuntime.
func SimulateTransient(rs *RuntimeSpec) (*TransientRun, error) {
	return SimulateTransientContext(context.Background(), rs)
}

// SimulateTransientContext is SimulateTransient with cancellation between
// epochs.
func SimulateTransientContext(ctx context.Context, rs *RuntimeSpec) (*TransientRun, error) {
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	profiles := rs.Profiles
	if profiles == nil {
		static, err := rs.staticDesign()
		if err != nil {
			return nil, err
		}
		profiles = static
	}
	series, _, dim, err := rs.runArm(ctx, profiles, nil)
	if err != nil {
		return nil, fmt.Errorf("control: transient simulation: %w", err)
	}
	return &TransientRun{Profiles: profiles, Series: *series, Engine: rs.Engine, ReducedDim: dim}, nil
}

// TraceDesign runs the design-time optimization of a trace-driven
// experiment: the modulation problem against the trace's time-average
// loads — the best design a static (design-time-only) flow of
// information can produce. RunRuntime and SimulateTransient perform
// exactly this when given no Profiles; callers running several
// experiments over one trace can solve it once and share the result.
func TraceDesign(spec *Spec, tr *power.Trace) (*Result, error) {
	mean, err := tr.MeanLoads()
	if err != nil {
		return nil, err
	}
	s := *spec
	s.Channels = loadsToChannels(mean)
	opt, err := Optimize(&s)
	if err != nil {
		return nil, fmt.Errorf("control: runtime static design: %w", err)
	}
	return opt, nil
}

// staticDesign resolves the profiles of the trace design.
func (rs *RuntimeSpec) staticDesign() ([]*microchannel.Profile, error) {
	opt, err := TraceDesign(rs.Spec, rs.Trace)
	if err != nil {
		return nil, err
	}
	return opt.Profiles, nil
}

func loadsToChannels(loads []power.PhaseLoad) []ChannelLoad {
	out := make([]ChannelLoad, len(loads))
	for k, ld := range loads {
		out[k] = ChannelLoad{FluxTop: ld.Top, FluxBottom: ld.Bottom}
	}
	return out
}

// epochState is what a decision callback may actuate for the next epoch.
type epochState struct {
	scales   []float64 // per-channel flow multipliers to apply (len = channels)
	profiles []*microchannel.Profile
}

// decideFunc plans the next epoch from its start time and mean loads.
type decideFunc func(ctx context.Context, t float64, loads []power.PhaseLoad,
	cur *epochState) (*EpochDecision, error)

// runArm integrates one arm over the horizon. decide == nil keeps the
// static actuation (uniform flow, fixed profiles) throughout.
func (rs *RuntimeSpec) runArm(ctx context.Context, profiles []*microchannel.Profile,
	decide decideFunc) (*RuntimeSeries, []EpochDecision, int, error) {

	p := rs.Spec.Params
	n := len(rs.Spec.Channels)
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

	state := &epochState{
		scales:   make([]float64, n),
		profiles: append([]*microchannel.Profile(nil), profiles...),
	}
	for i := range state.scales {
		state.scales[i] = 1
	}

	stack := &grid.Stack{
		Cfg: grid.Config{
			Params:  p,
			LengthX: p.Length,
			WidthY:  float64(n) * clusterW,
			NX:      rs.nx(),
			NY:      n,
		},
		PowerTop: func(x, y float64) float64 {
			return rs.Trace.LoadsAt(0)[chOf(y)].Top.At(x) / clusterW
		},
		PowerBottom: func(x, y float64) float64 {
			return rs.Trace.LoadsAt(0)[chOf(y)].Bottom.At(x) / clusterW
		},
		Width: func(x, y float64) float64 {
			return state.profiles[chOf(y)].At(x)
		},
		FlowScale: func(x, y float64) float64 {
			return state.scales[chOf(y)]
		},
	}
	// The plant evaluates the power fields once per cell per step, all at
	// the same t — resolve the trace phase once per distinct time instead
	// of 2·nx·ny times (the workspace is single-goroutine, so a plain
	// memo is safe).
	memoT := math.Inf(-1)
	var memoLoads []power.PhaseLoad
	loadsAt := func(t float64) []power.PhaseLoad {
		if t != memoT {
			memoT, memoLoads = t, rs.Trace.LoadsAt(t)
		}
		return memoLoads
	}
	topF := func(x, y, t float64) float64 {
		return loadsAt(t)[chOf(y)].Top.At(x) / clusterW
	}
	bottomF := func(x, y, t float64) float64 {
		return loadsAt(t)[chOf(y)].Bottom.At(x) / clusterW
	}

	ws, err := stack.NewTransientWorkspace(grid.TransientConfig{Dt: rs.dt(), Engine: rs.Engine})
	if err != nil {
		return nil, nil, 0, err
	}

	series := &RuntimeSeries{}
	recordStep := func() {
		series.Times = append(series.Times, ws.Time())
		series.PeakK = append(series.PeakK, ws.PeakTemperature())
		series.GradientK = append(series.GradientK, ws.Gradient())
	}
	recordStep() // t = 0

	var decisions []EpochDecision
	dt := rs.dt()
	stepsPerEpoch := rs.epochSteps()
	epochs := int(math.Ceil(rs.horizon() / (float64(stepsPerEpoch) * dt)))
	if epochs < 1 {
		epochs = 1
	}

	for e := 0; e < epochs; e++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		if decide != nil {
			t0 := ws.Time()
			loads, err := rs.epochMeanLoads(t0, stepsPerEpoch)
			if err != nil {
				return nil, nil, 0, err
			}
			dec, err := decide(ctx, t0, loads, state)
			if err != nil {
				return nil, nil, 0, err
			}
			decisions = append(decisions, *dec)
			if err := ws.Refresh(); err != nil {
				return nil, nil, 0, err
			}
		}
		for s := 0; s < stepsPerEpoch; s++ {
			if err := ws.Step(topF, bottomF); err != nil {
				return nil, nil, 0, err
			}
			recordStep()
		}
	}
	return series, decisions, ws.ReducedDim(), nil
}

// epochMeanLoads returns the duration-weighted mean loads over the epoch
// starting at t0, sampled at the plant's end-of-step times — backward
// Euler evaluates P(t^{n+1}), so these are exactly the loads the plant
// will apply during the epoch.
func (rs *RuntimeSpec) epochMeanLoads(t0 float64, steps int) ([]power.PhaseLoad, error) {
	dt := rs.dt()
	weights := make([]float64, len(rs.Trace.Phases))
	touched := 0
	last := -1
	for s := 0; s < steps; s++ {
		i, _ := rs.Trace.PhaseAt(t0 + float64(s+1)*dt)
		if weights[i] == 0 {
			touched++
			last = i
		}
		weights[i] += 1 / float64(steps)
	}
	if touched == 1 {
		return rs.Trace.Phases[last].Loads, nil
	}
	// Weighted mean across the phases the epoch touches (in phase order,
	// so the float reduction is deterministic), reusing the
	// trace-averaging machinery with the weights as durations.
	mix := &power.Trace{}
	for i, w := range weights {
		if w == 0 {
			continue
		}
		mix.Phases = append(mix.Phases, power.Phase{Duration: w, Loads: rs.Trace.Phases[i].Loads})
	}
	return mix.MeanLoads()
}

// decide is the controller's per-epoch planning step: re-optimize the
// flow allocation (and optionally the widths) against the compact model
// under the epoch's mean loads, then actuate the plant state.
func (rs *RuntimeSpec) decide(ctx context.Context, t float64, loads []power.PhaseLoad,
	state *epochState) (*EpochDecision, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec := *rs.Spec
	spec.Channels = loadsToChannels(loads)
	spec.OuterIterations = epochOuterIters
	spec.Inner.MaxIterations = epochInnerIters

	dec := &EpochDecision{Time: t}
	if rs.ReoptimizeWidths {
		spec.Segments = epochWidthSegments
		opt, err := Optimize(&spec)
		if err != nil {
			return nil, fmt.Errorf("epoch t=%g s width re-optimization: %w", t, err)
		}
		copy(state.profiles, opt.Profiles)
		dec.Widths = opt.Profiles
		dec.PredictedGradientK = opt.GradientK
	}

	scales, predicted, err := rs.allocateFlow(&spec, state.profiles)
	if err != nil {
		return nil, fmt.Errorf("epoch t=%g s flow allocation: %w", t, err)
	}
	copy(state.scales, scales)
	dec.FlowScales = scales
	dec.PredictedGradientK = predicted
	return dec, nil
}

// allocateFlow solves the per-epoch allocation in a flow-conserving
// parameterization: candidate multipliers are projected onto the
// constraint set {Σscale = N, lo ≤ scale ≤ hi} inside the objective, so
// the pump budget holds by construction and the small derivative-free
// search needs no equality multipliers (which the tight epoch budgets
// cannot afford to converge; the design-time A4 baseline keeps the exact
// augmented-Lagrangian treatment in OptimizeFlowAllocation).
func (rs *RuntimeSpec) allocateFlow(spec *Spec, profiles []*microchannel.Profile) ([]float64, float64, error) {
	n := len(spec.Channels)
	lo, hi := rs.scaleRange()
	model := buildModel(spec, profiles)
	ev := compact.NewEvaluator(spec.Params, spec.Steps)
	solveAt := func(scales []float64) (*compact.Result, error) {
		for k := range model.Channels {
			model.Channels[k].FlowScale = scales[k]
		}
		return ev.Solve(model.Channels)
	}
	if n == 1 {
		// Nothing to allocate under a conserved total flow, but the
		// prediction still comes from a real solve.
		sol, err := solveAt([]float64{1})
		if err != nil {
			return nil, 0, err
		}
		return []float64{1}, sol.Gradient(), nil
	}
	scratch := make([]float64, n)
	objective := func(x mat.Vec) (float64, error) {
		copy(scratch, x)
		projectScales(scratch, lo, hi)
		sol, err := solveAt(scratch)
		if err != nil {
			return 0, err
		}
		// The epoch decision minimizes the gradient itself, not the
		// design-time surrogate ∫‖q‖²: flow re-allocation cannot reshape
		// the along-channel heat-flow profile the surrogate tracks, only
		// rebalance channels against each other, and the experiment is
		// judged on the plant's Tmax − Tmin.
		return sol.Gradient(), nil
	}
	x0 := make(mat.Vec, n)
	x0.Fill(1)
	box, err := optimize.UniformBox(n, lo, hi)
	if err != nil {
		return nil, 0, err
	}
	xr, _, _, err := optimize.NelderMead(objective, x0, box, optimize.NelderMeadOptions{
		MaxEvaluations: epochInnerIters * (2*n + 8),
		Tol:            1e-6,
	})
	// A controller decision is an anytime computation: when the epoch's
	// evaluation budget runs out, the best allocation found so far IS the
	// decision. Only real failures abort.
	if err != nil && !errors.Is(err, optimize.ErrMaxIterations) {
		return nil, 0, err
	}
	scales := make([]float64, n)
	copy(scales, xr)
	projectScales(scales, lo, hi)
	sol, err := solveAt(scales)
	if err != nil {
		return nil, 0, err
	}
	return scales, sol.Gradient(), nil
}

// projectScales maps x onto {Σx = len(x), lo ≤ xᵢ ≤ hi} by clamping and
// redistributing the residual over the unsaturated entries — the
// water-filling projection. Feasibility needs lo ≤ 1 ≤ hi (validated).
func projectScales(x []float64, lo, hi float64) {
	for i, v := range x {
		x[i] = math.Min(hi, math.Max(lo, v))
	}
	target := float64(len(x))
	for iter := 0; iter < len(x); iter++ {
		var sum float64
		for _, v := range x {
			sum += v
		}
		d := target - sum
		if math.Abs(d) < 1e-12 {
			return
		}
		free := 0
		for _, v := range x {
			if (d > 0 && v < hi) || (d < 0 && v > lo) {
				free++
			}
		}
		if free == 0 {
			return
		}
		adj := d / float64(free)
		for i, v := range x {
			if (d > 0 && v < hi) || (d < 0 && v > lo) {
				x[i] = math.Min(hi, math.Max(lo, v+adj))
			}
		}
	}
}

// BatchRuntime runs many runtime experiments concurrently on the shared
// bounded worker pool, results ordered and bit-identical to a serial
// loop.
func BatchRuntime(ctx context.Context, specs []*RuntimeSpec) ([]*RuntimeResult, error) {
	return batch.Map(ctx, len(specs), func(ctx context.Context, i int) (*RuntimeResult, error) {
		return RunRuntimeContext(ctx, specs[i])
	})
}
