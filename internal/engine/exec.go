package engine

import (
	"context"
	"fmt"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/microchannel"
	"repro/internal/units"
)

// exec dispatches an already-canonical job to its executor. Every
// executor is deterministic (seeded randomness only) and fans its
// independent solves out on the bounded worker pool, so a cold run, a
// warm cache hit and a coalesced submission all observe bit-identical
// payloads. Composite kinds (compare, sweep, arch-experiment, and the
// nested design solves of thermalmap/transient/runtime) execute their
// points as individually content-addressed sub-jobs (see points.go),
// emitting a PointEvent per completed point into snk.
func (e *Engine) exec(ctx context.Context, job *Job, hash string, snk *sink) (*Result, error) {
	res := &Result{Kind: job.Kind, Hash: hash}
	var err error
	switch job.Kind {
	case KindCompare:
		err = e.execCompare(ctx, job, res, snk)
	case KindOptimize:
		err = e.execOptimize(ctx, job, res)
	case KindSweep:
		err = e.execSweep(ctx, job, res, snk)
	case KindArchExperiment:
		err = e.execArchExperiment(ctx, job, res, snk)
	case KindThermalMap:
		err = e.execThermalMap(ctx, job, res, snk)
	case KindTransient:
		err = e.execTransient(ctx, job, res, snk)
	case KindRuntime:
		err = e.execRuntime(ctx, job, res, snk)
	default:
		err = fmt.Errorf("engine: unknown job kind %q", job.Kind)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// compareLabels name a compare's sub-jobs in errors, in point order.
var compareLabels = [...]string{"core: min-width baseline", "core: max-width baseline", "core: optimization"}

// execCompare runs the paper's three-way evaluation as three optimize
// sub-jobs (the min- and max-width baselines and the modulation
// optimum), so a compare shares its optimum with a direct optimize of
// the same scenario and re-solves only what the cache lacks.
func (e *Engine) execCompare(ctx context.Context, job *Job, res *Result, snk *sink) error {
	subs := subJobs(job)
	preps, err := prepareAll(subs, func(i int) string { return compareLabels[i] })
	if err != nil {
		return err
	}
	designs := make([]*control.Result, len(subs))
	err = e.runPoints(ctx, preps,
		func(i int, err error) error { return fmt.Errorf("%s: %w", compareLabels[i], err) },
		func(i int, o outcome) error {
			designs[i] = o.res.Optimize
			return snk.point(PointEvent{Index: i, Total: len(subs), Info: o.info, Design: designs[i]})
		})
	if err != nil {
		return err
	}
	res.Compare = &core.Comparison{MinWidth: designs[0], MaxWidth: designs[1], Optimal: designs[2]}
	return nil
}

func (e *Engine) execOptimize(ctx context.Context, job *Job, res *Result) error {
	spec, err := job.Scenario.Spec()
	if err != nil {
		return err
	}
	o := job.Optimize
	width := spec.Bounds.Max
	if o.WidthUM > 0 {
		width = units.Micrometers(o.WidthUM)
	}
	switch o.Variant {
	case VariantModulation:
		r, err := control.OptimizeContext(ctx, spec)
		if err != nil {
			return err
		}
		res.Optimize = r
	case VariantBaseline:
		r, err := control.Baseline(spec, width)
		if err != nil {
			return err
		}
		res.Optimize = r
	case VariantFlowAllocation:
		lo, hi := o.FlowScaleRange[0], o.FlowScaleRange[1]
		r, err := control.OptimizeFlowAllocation(spec, width, lo, hi)
		if err != nil {
			return err
		}
		res.Optimize = &r.Result
		res.FlowScales = r.FlowScales
	case VariantMinPumping:
		r, err := control.OptimizeMinPumping(spec, o.MaxGradientK)
		if err != nil {
			return err
		}
		res.Optimize = r
	case VariantTraceDesign:
		tr, err := job.Scenario.BuildTrace(spec)
		if err != nil {
			return err
		}
		r, err := control.TraceDesign(spec, tr)
		if err != nil {
			return err
		}
		res.Optimize = r
	default:
		return fmt.Errorf("engine: unknown optimize variant %q", o.Variant)
	}
	return nil
}

// execSweep runs the sweep as per-point optimize sub-jobs: each point
// is content-addressed individually, so overlapping sweeps re-solve
// only the points they do not share, and the parent result is a
// reduction over the per-point cache entries.
func (e *Engine) execSweep(ctx context.Context, job *Job, res *Result, snk *sink) error {
	s := job.Sweep
	subs := subJobs(job)
	if len(subs) == 0 {
		return fmt.Errorf("engine: sweep decomposed into no points for kind %q", s.Kind)
	}
	preps, err := prepareAll(subs, func(i int) string { return fmt.Sprintf("sweep point %d", i) })
	if err != nil {
		return err
	}
	points := make([]SweepPoint, len(subs))
	err = e.runPoints(ctx, preps,
		func(i int, err error) error { return fmt.Errorf("engine: sweep point %d: %w", i, err) },
		func(i int, o outcome) error {
			points[i] = sweepPoint(s, i, preps[i].Hash, o.res.Optimize)
			return snk.point(PointEvent{Index: i, Total: len(subs), Info: o.info, Sweep: &points[i]})
		})
	if err != nil {
		return err
	}
	res.Sweep = &SweepResult{Kind: s.Kind, Points: points}
	return nil
}

// sweepPoint assembles one evaluated sweep point; only the swept axis'
// coordinate field is populated.
func sweepPoint(s *SweepSpec, i int, hash string, r *control.Result) SweepPoint {
	pt := SweepPoint{Hash: hash, Result: r}
	switch s.Kind {
	case SweepPressure:
		pt.PressureBar = s.PressureBars[i]
	case SweepSegments:
		pt.Segments = s.Segments[i]
	case SweepFlow:
		pt.FlowMLMin = s.FlowMLMin[i]
	}
	return pt
}

// execArchExperiment runs the Fig. 8 grid as per-combo compare
// sub-jobs over the arch presets, each cache-shared with direct compare
// submissions of the same scenario.
func (e *Engine) execArchExperiment(ctx context.Context, job *Job, res *Result, snk *sink) error {
	type combo struct {
		arch int
		mode string
	}
	var combos []combo
	for _, a := range job.Experiment.Archs {
		for _, m := range job.Experiment.Modes {
			combos = append(combos, combo{a, m})
		}
	}
	subs := subJobs(job)
	preps, err := prepareAll(subs, func(i int) string {
		return fmt.Sprintf("arch %d / %s", combos[i].arch, combos[i].mode)
	})
	if err != nil {
		return err
	}
	cases := make([]ExperimentCase, len(subs))
	err = e.runPoints(ctx, preps,
		func(i int, err error) error {
			return fmt.Errorf("engine: arch %d / %s: %w", combos[i].arch, combos[i].mode, err)
		},
		func(i int, o outcome) error {
			cases[i] = ExperimentCase{
				Arch: combos[i].arch, Mode: combos[i].mode,
				Comparison: o.res.Compare, Hash: preps[i].Hash,
			}
			return snk.point(PointEvent{Index: i, Total: len(subs), Info: o.info, Case: &cases[i]})
		})
	if err != nil {
		return err
	}
	res.Experiment = &ExperimentResult{Cases: cases}
	return nil
}

// prepareAll canonicalizes and addresses a point family; label names a
// failing point in the error.
func prepareAll(subs []*Job, label func(i int) string) ([]*Prepared, error) {
	preps := make([]*Prepared, len(subs))
	for i, sub := range subs {
		p, err := PrepareJob(sub)
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", label(i), err)
		}
		preps[i] = p
	}
	return preps, nil
}

func (e *Engine) execThermalMap(ctx context.Context, job *Job, res *Result, snk *sink) error {
	m := job.Map
	var (
		stack    *grid.Stack
		profiles []*microchannel.Profile
		err      error
	)
	switch job.Scenario.Preset {
	case "fig1a", "fig1b":
		cfg := core.Fig1Config{NX: m.NX, NY: m.NY, Width: units.Micrometers(m.WidthUM)}
		if job.Scenario.Preset == "fig1a" {
			stack, err = core.Fig1UniformStack(cfg)
		} else {
			stack, err = core.Fig1NiagaraStack(cfg)
		}
	case "arch1", "arch2", "arch3":
		stack, profiles, err = e.archMapStack(ctx, job, snk)
	default:
		stack, profiles, err = e.channelMapStack(ctx, job, snk)
	}
	if err != nil {
		return err
	}
	f, err := stack.Solve()
	if err != nil {
		return err
	}
	res.Map = &MapResult{Field: f, Profiles: profiles}
	return nil
}

// archMapStack assembles the Fig. 9-style grid stack of an arch preset:
// uniform or bound widths directly, or the scenario's optimal modulation
// via a nested optimize job (cache-shared with any direct submission of
// that job).
func (e *Engine) archMapStack(ctx context.Context, job *Job, snk *sink) (*grid.Stack, []*microchannel.Profile, error) {
	m := job.Map
	arch := int(job.Scenario.Preset[4] - '0')
	mode, err := job.Scenario.FloorplanMode()
	if err != nil {
		return nil, nil, err
	}
	spec, err := job.Scenario.Spec()
	if err != nil {
		return nil, nil, err
	}
	switch m.Widths {
	case WidthsUniform:
		s, err := core.ArchGridStack(arch, mode, nil, units.Micrometers(m.WidthUM), m.NX, m.NY)
		return s, nil, err
	case WidthsMin:
		s, err := core.ArchGridStack(arch, mode, nil, spec.Bounds.Min, m.NX, m.NY)
		return s, nil, err
	case WidthsMax:
		s, err := core.ArchGridStack(arch, mode, nil, spec.Bounds.Max, m.NX, m.NY)
		return s, nil, err
	case WidthsOptimal:
		profiles, err := e.optimalProfiles(ctx, job, snk)
		if err != nil {
			return nil, nil, err
		}
		s, err := core.ArchGridStack(arch, mode, profiles, 0, m.NX, m.NY)
		return s, profiles, err
	default:
		return nil, nil, fmt.Errorf("engine: unknown map widths %q", m.Widths)
	}
}

// channelMapStack assembles a grid stack straight from the scenario's
// channel columns (testA/testB presets or explicit channels): one grid
// row per channel, power densities from the channel fluxes. This is the
// Sec. III validation geometry generalized to any scenario.
func (e *Engine) channelMapStack(ctx context.Context, job *Job, snk *sink) (*grid.Stack, []*microchannel.Profile, error) {
	m := job.Map
	spec, err := job.Scenario.Spec()
	if err != nil {
		return nil, nil, err
	}
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

	var profiles []*microchannel.Profile
	width := func(x, y float64) float64 { return units.Micrometers(m.WidthUM) }
	switch m.Widths {
	case WidthsUniform:
	case WidthsMin:
		width = func(x, y float64) float64 { return spec.Bounds.Min }
	case WidthsMax:
		width = func(x, y float64) float64 { return spec.Bounds.Max }
	case WidthsOptimal:
		profiles, err = e.optimalProfiles(ctx, job, snk)
		if err != nil {
			return nil, nil, err
		}
		width = func(x, y float64) float64 { return profiles[chOf(y)].At(x) }
	default:
		return nil, nil, fmt.Errorf("engine: unknown map widths %q", m.Widths)
	}

	nx, ny := m.NX, m.NY
	if nx <= 0 {
		nx = 50
	}
	if ny <= 0 {
		ny = n
	}
	stack := &grid.Stack{
		Cfg: grid.Config{
			Params:  p,
			LengthX: p.Length,
			WidthY:  float64(n) * clusterW,
			NX:      nx,
			NY:      ny,
		},
		PowerTop: func(x, y float64) float64 {
			return spec.Channels[chOf(y)].FluxTop.At(x) / clusterW
		},
		PowerBottom: func(x, y float64) float64 {
			return spec.Channels[chOf(y)].FluxBottom.At(x) / clusterW
		},
		Width: width,
	}
	if err := stack.Cfg.Validate(); err != nil {
		return nil, nil, err
	}
	return stack, profiles, nil
}

// optimalProfiles resolves the scenario's optimal modulation through a
// nested optimize job on this engine, so a thermal map of the optimum
// shares the cache entry with a direct optimization of the same
// scenario.
func (e *Engine) optimalProfiles(ctx context.Context, job *Job, snk *sink) ([]*microchannel.Profile, error) {
	r, err := e.runDesign(ctx, snk, designJob(job), "map design optimization")
	if err != nil {
		return nil, err
	}
	return r.Profiles, nil
}

func (e *Engine) execTransient(ctx context.Context, job *Job, res *Result, snk *sink) error {
	rs, err := job.Scenario.RuntimeSpec()
	if err != nil {
		return err
	}
	if w := job.Transient.WidthUM; w > 0 {
		profiles := make([]*microchannel.Profile, len(rs.Spec.Channels))
		for k := range profiles {
			p, err := microchannel.NewUniform(units.Micrometers(w), rs.Spec.Params.Length, 1)
			if err != nil {
				return err
			}
			profiles[k] = p
		}
		rs.Profiles = profiles
	} else if rs.Profiles, err = e.traceDesign(ctx, job, snk); err != nil {
		return err
	}
	run, err := control.SimulateTransientContext(ctx, rs)
	if err != nil {
		return err
	}
	res.Transient = run
	return nil
}

// traceDesign resolves the scenario's design-time modulation (the
// profiles a trace-driven plant runs) through a nested trace-design
// optimize job, so experiments sharing a trace — e.g. the two E10
// valve-authority ranges — solve the design once and share the cache
// entry.
func (e *Engine) traceDesign(ctx context.Context, job *Job, snk *sink) ([]*microchannel.Profile, error) {
	r, err := e.runDesign(ctx, snk, traceDesignJob(job), "trace design")
	if err != nil {
		return nil, err
	}
	return r.Profiles, nil
}

func (e *Engine) execRuntime(ctx context.Context, job *Job, res *Result, snk *sink) error {
	rs, err := job.Scenario.RuntimeSpec()
	if err != nil {
		return err
	}
	if rs.Profiles, err = e.traceDesign(ctx, job, snk); err != nil {
		return err
	}
	r, err := control.RunRuntimeContext(ctx, rs)
	if err != nil {
		return err
	}
	nx, ny := rs.PlantResolution()
	res.Runtime = &RuntimeJobResult{Result: r, Channels: len(rs.Spec.Channels), NX: nx, NY: ny}
	return nil
}
