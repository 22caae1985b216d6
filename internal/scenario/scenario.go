// Package scenario serializes channel-modulation problems and results to
// JSON, in engineering units (µm, mm, ml/min, bar, W/cm², °C), so that
// design problems can be stored, versioned and exchanged by the CLI tools
// without touching Go code.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/compact"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/microchannel"
	"repro/internal/power"
	"repro/internal/units"
)

// File is the on-disk scenario description.
type File struct {
	// Name labels the scenario. It is cosmetic: two files differing only
	// in Name describe the same problem (the engine's content hash
	// ignores it).
	Name string `json:"name"`
	// Preset selects one of the paper's built-in problems instead of an
	// explicit channel list: "testA", "testB", "arch1", "arch2" or
	// "arch3". The grid-map-only presets "fig1a" and "fig1b" are
	// understood by thermal-map jobs but carry no optimizable channels.
	Preset string `json:"preset,omitempty"`
	// Mode selects the power map of arch presets: "peak" (default) or
	// "average".
	Mode string `json:"mode,omitempty"`
	// Seed overrides the testB preset's random seed. A pointer so an
	// explicit 0 (a legal seed with its own draw) stays distinguishable
	// from absence (→ the canonical 2012).
	Seed *int64 `json:"seed,omitempty"`
	// Params holds the stack geometry in engineering units; zero values
	// select the Table I defaults.
	Params Params `json:"params"`
	// BoundsUM are the width bounds [min, max] in µm (zero → [10, 50]).
	BoundsUM [2]float64 `json:"bounds_um"`
	// Segments is the control discretization (zero → 20). For arch
	// presets it changes only the width discretization; the power-map
	// integration stays at the experiments' canonical 20 segments.
	Segments int `json:"segments,omitempty"`
	// OuterIterations bounds the augmented-Lagrangian outer loop
	// (zero → the solver default).
	OuterIterations int `json:"outer_iterations,omitempty"`
	// MaxPressureBar is ΔPmax in bar (zero → 10).
	MaxPressureBar float64 `json:"max_pressure_bar,omitempty"`
	// EqualPressure enforces equal drops across channels. Arch presets
	// always couple their shared reservoir, regardless of this field.
	EqualPressure bool `json:"equal_pressure,omitempty"`
	// Solver is "lbfgsb" (default), "projgrad" or "neldermead".
	Solver string `json:"solver,omitempty"`
	// Gradient selects how the gradient-based solvers obtain objective
	// gradients: "adjoint" (default — one exact adjoint pass per gradient)
	// or "fd" (the finite-difference escape hatch). Ignored by the
	// derivative-free neldermead solver.
	Gradient string `json:"gradient,omitempty"`
	// Channels lists the heat loads (the static map, and the base map a
	// trace's scale phases multiply). Mutually exclusive with Preset.
	Channels []Channel `json:"channels,omitempty"`
	// Floorplan describes the heat loads declaratively as a two-die block
	// floorplan that is rasterized into channel loads against the resolved
	// stack geometry. Mutually exclusive with Preset and Channels; Mode
	// selects its peak or average densities.
	Floorplan *Floorplan `json:"floorplan,omitempty"`
	// Trace optionally schedules time-varying power for transient and
	// runtime-control experiments.
	Trace *Trace `json:"trace,omitempty"`
	// Runtime configures the transient runtime-controller experiment.
	Runtime *Runtime `json:"runtime,omitempty"`
}

// Trace is the serialized power schedule: phases playing in order, each
// holding either an explicit per-channel map or a multiplier of the base
// channels.
type Trace struct {
	// Periodic wraps the schedule around its total duration; false holds
	// the last phase.
	Periodic bool `json:"periodic,omitempty"`
	// Phases play in order.
	Phases []Phase `json:"phases"`
}

// Phase is one dwell of the trace.
type Phase struct {
	// DurationMS is the dwell time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Scale multiplies the scenario's base channels. A pointer so an
	// explicit 0 (idle) stays distinguishable from absence; exactly one
	// of Scale and Channels must be set.
	Scale *float64 `json:"scale,omitempty"`
	// Channels gives explicit per-channel fluxes for this phase.
	Channels []Channel `json:"channels,omitempty"`
}

// Runtime parameterizes the closed-loop flow-controller experiment; zero
// values select the documented defaults.
type Runtime struct {
	// DtMS is the plant integration step in milliseconds (0 → 1).
	DtMS float64 `json:"dt_ms,omitempty"`
	// EpochMS is the control-epoch length in milliseconds (0 → 10).
	EpochMS float64 `json:"epoch_ms,omitempty"`
	// HorizonMS is the simulated span in milliseconds (0 → two trace
	// durations).
	HorizonMS float64 `json:"horizon_ms,omitempty"`
	// FlowScaleRange bounds the per-channel flow multipliers
	// ([0, 0] → [0.5, 2]).
	FlowScaleRange [2]float64 `json:"flow_scale_range,omitempty"`
	// NX is the grid resolution along the flow (0 → 40).
	NX int `json:"nx,omitempty"`
	// Engine selects the transient plant engine: "lu" (default — the
	// factor-once direct solver), "bicgstab", or "mor" (the
	// reduced-order Krylov/exponential engine for large meshes).
	Engine string `json:"engine,omitempty"`
}

// Params mirrors compact.Params in engineering units. Dimensions and
// rates are strictly positive, so their zero value can double as "use the
// Table I default"; the inlet temperature is a pointer because 0 °C is a
// perfectly legal coolant temperature — presence, not value, selects it.
type Params struct {
	SiliconConductivity float64  `json:"silicon_conductivity_w_mk,omitempty"`
	PitchUM             float64  `json:"pitch_um,omitempty"`
	SlabHeightUM        float64  `json:"slab_height_um,omitempty"`
	ChannelHeightUM     float64  `json:"channel_height_um,omitempty"`
	LengthMM            float64  `json:"length_mm,omitempty"`
	InletTempC          *float64 `json:"inlet_temp_c,omitempty"`
	FlowRateMLMin       float64  `json:"flow_rate_ml_min,omitempty"`
	ClusterSize         int      `json:"cluster_size,omitempty"`
}

// Channel is one column's heat load: per-segment areal fluxes in W/cm²
// applied to the top and bottom layers (equal-length segments along the
// flow).
type Channel struct {
	TopWcm2    []float64 `json:"top_wcm2"`
	BottomWcm2 []float64 `json:"bottom_wcm2"`
}

// Load parses a scenario file and builds the corresponding control.Spec.
func Load(r io.Reader) (*control.Spec, *File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, nil, fmt.Errorf("scenario: decode: %w", err)
	}
	spec, err := f.Spec()
	if err != nil {
		return nil, nil, err
	}
	return spec, &f, nil
}

// SpecPresets lists the presets Spec understands, in documentation order.
var SpecPresets = []string{"testA", "testB", "arch1", "arch2", "arch3"}

// MapPresets lists the additional grid-map-only presets thermal-map jobs
// understand on top of SpecPresets.
var MapPresets = []string{"fig1a", "fig1b"}

// IsMapOnlyPreset reports whether the preset names a grid-map stack with
// no optimizable channel structure.
func IsMapOnlyPreset(preset string) bool {
	return preset == "fig1a" || preset == "fig1b"
}

// FloorplanMode resolves the file's power-mode string ("" and "peak" →
// Peak, "average" → Average).
func (f *File) FloorplanMode() (floorplan.Mode, error) {
	switch f.Mode {
	case "", "peak":
		return floorplan.Peak, nil
	case "average":
		return floorplan.Average, nil
	default:
		return 0, fmt.Errorf("scenario: unknown power mode %q (want peak or average)", f.Mode)
	}
}

// checked is what Spec's checks resolve before any load is built: the
// spec's settings (every field but Channels), the number of channel
// loads the spec will carry, and the power mode they are integrated in.
type checked struct {
	spec     control.Spec
	channels int
	mode     floorplan.Mode
}

// Check runs Spec's checks without building the spec: floorplans are
// not rasterized, Test-B loads are not drawn and arch power maps are not
// integrated. Spec runs these checks before it builds, so Check fails
// exactly when Spec does, with the same error, save for a floorplan
// whose power integration overflows float64 (DESIGN.md §9.4).
func (f *File) Check() error {
	_, err := f.check()
	return err
}

// CheckTrace runs the checks of Spec and then those of BuildTrace
// against the spec Spec would build, without building either. Like
// Check, it does not compute loads, so a phase scale that overflows the
// base loads passes it (DESIGN.md §9.4).
func (f *File) CheckTrace() error {
	c, err := f.check()
	if err != nil {
		return err
	}
	return f.checkTrace(c.spec.Params, c.channels)
}

// CheckRuntime runs every check of RuntimeSpec without building the
// spec or the trace.
func (f *File) CheckRuntime() error {
	_, _, err := f.checkRuntime()
	return err
}

// Spec converts the file into a validated control.Spec.
func (f *File) Spec() (*control.Spec, error) {
	c, err := f.check()
	if err != nil {
		return nil, err
	}
	return f.build(&c)
}

// check runs Spec's checks and resolves the spec's settings.
func (f *File) check() (checked, error) {
	if f.Preset != "" {
		if f.Floorplan != nil {
			return checked{}, fmt.Errorf("scenario: %q sets both preset %q and a floorplan", f.Name, f.Preset)
		}
		return f.checkPreset()
	}
	p := f.resolveParams()

	c := checked{channels: len(f.Channels)}
	if f.Floorplan != nil {
		if len(f.Channels) != 0 {
			return checked{}, fmt.Errorf("scenario: %q sets both a floorplan and explicit channels", f.Name)
		}
		mode, err := f.FloorplanMode()
		if err != nil {
			return checked{}, err
		}
		_, _, n, err := f.Floorplan.check(p)
		if err != nil {
			return checked{}, err
		}
		c.channels, c.mode = n, mode
	}

	bounds := microchannel.Bounds{
		Min: units.Micrometers(f.BoundsUM[0]),
		Max: units.Micrometers(f.BoundsUM[1]),
	}
	if f.BoundsUM[0] == 0 && f.BoundsUM[1] == 0 {
		bounds = microchannel.Bounds{Min: units.Micrometers(10), Max: units.Micrometers(50)}
	}

	if c.channels == 0 {
		return checked{}, fmt.Errorf("scenario: %q has no channels", f.Name)
	}
	clusterW := p.ClusterWidth()
	for k, ch := range f.Channels {
		if err := checkFlux(ch.TopWcm2, clusterW, p.Length); err != nil {
			return checked{}, fmt.Errorf("scenario: channel %d top: %w", k, err)
		}
		if err := checkFlux(ch.BottomWcm2, clusterW, p.Length); err != nil {
			return checked{}, fmt.Errorf("scenario: channel %d bottom: %w", k, err)
		}
	}

	solver, err := parseSolver(f.Solver)
	if err != nil {
		return checked{}, err
	}
	gradient, err := parseGradient(f.Gradient)
	if err != nil {
		return checked{}, err
	}

	c.spec = control.Spec{
		Params:          p,
		Bounds:          bounds,
		Segments:        f.Segments,
		OuterIterations: f.OuterIterations,
		MaxPressure:     units.Bar(f.MaxPressureBar),
		EqualPressure:   f.EqualPressure,
		Solver:          solver,
		Gradient:        gradient,
	}
	if f.MaxPressureBar == 0 {
		c.spec.MaxPressure = 0 // control applies the 10-bar default
	}
	if err := c.spec.ValidateSettings(); err != nil {
		return checked{}, err
	}
	return c, nil
}

// checkPreset runs the checks of a preset scenario and layers the file's
// overrides (bounds, discretization, budget, solver) on the preset's
// settings. Those settings are the ones the core builders give every
// preset spec (TestPresetSettings pins them).
func (f *File) checkPreset() (checked, error) {
	if len(f.Channels) != 0 {
		return checked{}, fmt.Errorf("scenario: %q sets both preset %q and explicit channels", f.Name, f.Preset)
	}
	// The preset loads bake in the Table I pitch, cluster size and die
	// length; overriding those silently would desynchronize the loads
	// from the geometry.
	switch {
	case f.Params.PitchUM != 0:
		return checked{}, fmt.Errorf("scenario: preset %q cannot override pitch_um (the preset loads bake it in)", f.Preset)
	case f.Params.LengthMM != 0:
		return checked{}, fmt.Errorf("scenario: preset %q cannot override length_mm (the preset loads bake it in)", f.Preset)
	case f.Params.ClusterSize != 0:
		return checked{}, fmt.Errorf("scenario: preset %q cannot override cluster_size (the preset loads bake it in)", f.Preset)
	}
	mode, err := f.FloorplanMode()
	if err != nil {
		return checked{}, err
	}
	c := checked{
		spec: control.Spec{
			Params:   compact.DefaultParams(),
			Bounds:   core.DefaultBounds(),
			Segments: control.DefaultSegments,
		},
		channels: 1,
		mode:     mode,
	}
	switch f.Preset {
	case "testA", "testB":
	case "arch1", "arch2", "arch3":
		c.channels = core.ArchChannels
		c.spec.EqualPressure = true
	case "fig1a", "fig1b":
		return checked{}, fmt.Errorf("scenario: preset %q is a grid-map stack, not an optimizable scenario", f.Preset)
	default:
		return checked{}, fmt.Errorf("scenario: unknown preset %q", f.Preset)
	}

	spec := &c.spec
	// Non-geometry parameter overrides still apply to presets.
	if f.Params.SiliconConductivity > 0 {
		spec.Params.SiliconConductivity = f.Params.SiliconConductivity
	}
	if f.Params.SlabHeightUM > 0 {
		spec.Params.SlabHeight = units.Micrometers(f.Params.SlabHeightUM)
	}
	if f.Params.ChannelHeightUM > 0 {
		spec.Params.ChannelHeight = units.Micrometers(f.Params.ChannelHeightUM)
	}
	if f.Params.InletTempC != nil {
		spec.Params.InletTemp = units.Celsius(*f.Params.InletTempC)
	}
	if f.Params.FlowRateMLMin > 0 {
		spec.Params.FlowRatePerChannel = units.MilliLitersPerMinute(f.Params.FlowRateMLMin)
	}
	if f.BoundsUM[0] != 0 || f.BoundsUM[1] != 0 {
		spec.Bounds = microchannel.Bounds{
			Min: units.Micrometers(f.BoundsUM[0]),
			Max: units.Micrometers(f.BoundsUM[1]),
		}
	}
	if f.Segments > 0 {
		spec.Segments = f.Segments
	}
	if f.OuterIterations > 0 {
		spec.OuterIterations = f.OuterIterations
	}
	if f.MaxPressureBar > 0 {
		spec.MaxPressure = units.Bar(f.MaxPressureBar)
	}
	if f.EqualPressure {
		spec.EqualPressure = true
	}
	if spec.Solver, err = parseSolver(f.Solver); err != nil {
		return checked{}, err
	}
	if spec.Gradient, err = parseGradient(f.Gradient); err != nil {
		return checked{}, err
	}
	if err := spec.ValidateSettings(); err != nil {
		return checked{}, err
	}
	return c, nil
}

// build attaches the channel loads to checked settings: the preset's
// loads from its core builder, or the explicit or rasterized channels.
func (f *File) build(c *checked) (*control.Spec, error) {
	spec := c.spec
	var (
		preset *control.Spec
		err    error
	)
	switch f.Preset {
	case "testA":
		preset, err = core.TestASpec()
	case "testB":
		cfg := power.DefaultTestB()
		if f.Seed != nil {
			cfg.Seed = *f.Seed
		}
		preset, err = core.TestBSpec(cfg)
	case "arch1", "arch2", "arch3":
		// The power-map discretization is pinned to the experiments'
		// canonical 20 segments; f.Segments only changes the
		// width-control discretization (matching the historical CLI
		// behavior of overriding Segments after construction).
		preset, err = core.ArchSpec(int(f.Preset[4]-'0'), c.mode, control.DefaultSegments)
	default:
		spec.Channels, err = f.channelLoads(&spec.Params, c.mode)
	}
	if err != nil {
		return nil, err
	}
	if preset != nil {
		spec.Channels = preset.Channels
	}
	return &spec, nil
}

// channelLoads converts the explicit or rasterized channels of a checked
// non-preset file into loads.
func (f *File) channelLoads(p *compact.Params, mode floorplan.Mode) ([]control.ChannelLoad, error) {
	channels := f.Channels
	if f.Floorplan != nil {
		var err error
		if channels, err = f.Floorplan.rasterize(*p, mode); err != nil {
			return nil, err
		}
	}
	loads := make([]control.ChannelLoad, len(channels))
	clusterW := p.ClusterWidth()
	for k, ch := range channels {
		top, err := fluxFromWcm2(ch.TopWcm2, clusterW, p.Length)
		if err != nil {
			return nil, fmt.Errorf("scenario: channel %d top: %w", k, err)
		}
		bottom, err := fluxFromWcm2(ch.BottomWcm2, clusterW, p.Length)
		if err != nil {
			return nil, fmt.Errorf("scenario: channel %d bottom: %w", k, err)
		}
		loads[k] = control.ChannelLoad{FluxTop: top, FluxBottom: bottom}
	}
	return loads, nil
}

// resolveParams layers the file's engineering-unit overrides on the
// Table I defaults (zero/absent fields keep the default).
func (f *File) resolveParams() compact.Params {
	p := compact.DefaultParams()
	if f.Params.SiliconConductivity > 0 {
		p.SiliconConductivity = f.Params.SiliconConductivity
	}
	if f.Params.PitchUM > 0 {
		p.Pitch = units.Micrometers(f.Params.PitchUM)
	}
	if f.Params.SlabHeightUM > 0 {
		p.SlabHeight = units.Micrometers(f.Params.SlabHeightUM)
	}
	if f.Params.ChannelHeightUM > 0 {
		p.ChannelHeight = units.Micrometers(f.Params.ChannelHeightUM)
	}
	if f.Params.LengthMM > 0 {
		p.Length = units.Millimeters(f.Params.LengthMM)
	}
	if f.Params.InletTempC != nil {
		p.InletTemp = units.Celsius(*f.Params.InletTempC)
	}
	if f.Params.FlowRateMLMin > 0 {
		p.FlowRatePerChannel = units.MilliLitersPerMinute(f.Params.FlowRateMLMin)
	}
	if f.Params.ClusterSize > 0 {
		p.ClusterSize = f.Params.ClusterSize
	}
	return p
}

func parseSolver(name string) (control.Solver, error) {
	switch name {
	case "", "lbfgsb":
		return control.SolverLBFGSB, nil
	case "projgrad":
		return control.SolverProjGrad, nil
	case "neldermead":
		return control.SolverNelderMead, nil
	default:
		return 0, fmt.Errorf("scenario: unknown solver %q", name)
	}
}

func parseGradient(name string) (control.Gradient, error) {
	switch name {
	case "", "adjoint":
		return control.GradientAdjoint, nil
	case "fd":
		return control.GradientFD, nil
	default:
		return 0, fmt.Errorf("scenario: unknown gradient mode %q (want adjoint or fd)", name)
	}
}

// BuildTrace converts the file's trace section into a power.Trace against
// the resolved parameters: scale phases multiply the base channels,
// explicit-channel phases are converted like the base map.
func (f *File) BuildTrace(spec *control.Spec) (*power.Trace, error) {
	if err := f.checkTrace(spec.Params, len(spec.Channels)); err != nil {
		return nil, err
	}
	return f.buildTrace(spec)
}

// checkTrace runs BuildTrace's checks against a base map of n channels
// over params p, including power.Trace.Validate's check of the built
// schedule, without building a load.
func (f *File) checkTrace(p compact.Params, n int) error {
	if f.Trace == nil {
		return fmt.Errorf("scenario: %q has no trace", f.Name)
	}
	if len(f.Trace.Phases) == 0 {
		return fmt.Errorf("scenario: %q trace has no phases", f.Name)
	}
	clusterW := p.ClusterWidth()
	for i, ph := range f.Trace.Phases {
		switch {
		case ph.Scale != nil && ph.Channels != nil:
			return fmt.Errorf("scenario: trace phase %d sets both scale and channels", i)
		case ph.Scale != nil:
			if *ph.Scale < 0 {
				return fmt.Errorf("scenario: trace phase %d negative scale %g", i, *ph.Scale)
			}
		case ph.Channels != nil:
			if len(ph.Channels) != n {
				return fmt.Errorf("scenario: trace phase %d has %d channels, base has %d",
					i, len(ph.Channels), n)
			}
			for k, ch := range ph.Channels {
				if err := checkFlux(ch.TopWcm2, clusterW, p.Length); err != nil {
					return fmt.Errorf("scenario: trace phase %d channel %d top: %w", i, k, err)
				}
				if err := checkFlux(ch.BottomWcm2, clusterW, p.Length); err != nil {
					return fmt.Errorf("scenario: trace phase %d channel %d bottom: %w", i, k, err)
				}
			}
		default:
			return fmt.Errorf("scenario: trace phase %d needs scale or channels", i)
		}
	}
	// Every phase carries n loads, so the built schedule's validation
	// reduces to its dwell times.
	for i, ph := range f.Trace.Phases {
		if err := power.CheckPhaseDuration(i, units.Milliseconds(ph.DurationMS)); err != nil {
			return fmt.Errorf("scenario: %q: %w", f.Name, err)
		}
	}
	return nil
}

// buildTrace builds a checked trace section against spec.
func (f *File) buildTrace(spec *control.Spec) (*power.Trace, error) {
	base := make([]power.PhaseLoad, len(spec.Channels))
	for k, ch := range spec.Channels {
		base[k] = power.PhaseLoad{Top: ch.FluxTop, Bottom: ch.FluxBottom}
	}
	clusterW := spec.Params.ClusterWidth()
	tr := &power.Trace{Periodic: f.Trace.Periodic, Phases: make([]power.Phase, len(f.Trace.Phases))}
	for i, ph := range f.Trace.Phases {
		out := &tr.Phases[i]
		out.Duration = units.Milliseconds(ph.DurationMS)
		if ph.Scale != nil {
			loads, err := power.ScaleLoads(base, *ph.Scale)
			if err != nil {
				return nil, fmt.Errorf("scenario: trace phase %d: %w", i, err)
			}
			out.Loads = loads
			continue
		}
		out.Loads = make([]power.PhaseLoad, len(ph.Channels))
		for k, ch := range ph.Channels {
			top, err := fluxFromWcm2(ch.TopWcm2, clusterW, spec.Params.Length)
			if err != nil {
				return nil, fmt.Errorf("scenario: trace phase %d channel %d top: %w", i, k, err)
			}
			bottom, err := fluxFromWcm2(ch.BottomWcm2, clusterW, spec.Params.Length)
			if err != nil {
				return nil, fmt.Errorf("scenario: trace phase %d channel %d bottom: %w", i, k, err)
			}
			out.Loads[k] = power.PhaseLoad{Top: top, Bottom: bottom}
		}
	}
	return tr, nil
}

// RuntimeSpec assembles the closed-loop runtime experiment from the
// scenario: the base spec, the trace, and the runtime section's timing
// (zero values fall through to the control package's defaults).
func (f *File) RuntimeSpec() (*control.RuntimeSpec, error) {
	c, rs, err := f.checkRuntime()
	if err != nil {
		return nil, err
	}
	if rs.Spec, err = f.build(&c); err != nil {
		return nil, err
	}
	if rs.Trace, err = f.buildTrace(rs.Spec); err != nil {
		return nil, err
	}
	return &rs, nil
}

// checkRuntime runs RuntimeSpec's checks: Spec's, BuildTrace's, and the
// runtime section's, which it resolves into the controller settings.
func (f *File) checkRuntime() (checked, control.RuntimeSpec, error) {
	c, err := f.check()
	if err != nil {
		return checked{}, control.RuntimeSpec{}, err
	}
	if err := f.checkTrace(c.spec.Params, c.channels); err != nil {
		return checked{}, control.RuntimeSpec{}, err
	}
	var rs control.RuntimeSpec
	if rt := f.Runtime; rt != nil {
		rs.Dt = units.Milliseconds(rt.DtMS)
		rs.Epoch = units.Milliseconds(rt.EpochMS)
		rs.Horizon = units.Milliseconds(rt.HorizonMS)
		rs.FlowScaleMin = rt.FlowScaleRange[0]
		rs.FlowScaleMax = rt.FlowScaleRange[1]
		rs.NX = rt.NX
		eng, err := grid.ParseTransientEngine(rt.Engine)
		if err != nil {
			return checked{}, control.RuntimeSpec{}, fmt.Errorf("scenario: %q: %w", f.Name, err)
		}
		rs.Engine = eng
	}
	if err := rs.ValidateController(); err != nil {
		return checked{}, control.RuntimeSpec{}, err
	}
	return c, rs, nil
}

// checkFlux runs fluxFromWcm2's checks without building the flux.
func checkFlux(vals []float64, clusterWidth, length float64) error {
	if len(vals) == 0 {
		return fmt.Errorf("empty flux list")
	}
	var buf [32]float64
	return compact.CheckFlux(linearFlux(buf[:0], vals, clusterWidth), length)
}

// fluxFromWcm2 builds the flux of areal W/cm² values checkFlux accepted.
func fluxFromWcm2(vals []float64, clusterWidth, length float64) (*compact.Flux, error) {
	return compact.NewFlux(linearFlux(make([]float64, 0, len(vals)), vals, clusterWidth), length)
}

// linearFlux appends the cluster-wide linear densities (W/m) of areal
// W/cm² segment values to dst.
func linearFlux(dst, vals []float64, clusterWidth float64) []float64 {
	for _, v := range vals {
		dst = append(dst, units.WattsPerCm2(v)*clusterWidth)
	}
	return dst
}

// Save writes the scenario file as indented JSON.
func Save(w io.Writer, f *File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("scenario: encode: %w", err)
	}
	return nil
}

// Result is the JSON projection of an optimization outcome.
type Result struct {
	Name             string      `json:"name,omitempty"`
	GradientK        float64     `json:"gradient_k"`
	PeakC            float64     `json:"peak_c"`
	PressureDropsBar []float64   `json:"pressure_drops_bar"`
	Objective        float64     `json:"objective_w2m"`
	Evaluations      int         `json:"evaluations"`
	ProfilesUM       [][]float64 `json:"profiles_um"`
}

// NewResult projects a control.Result for serialization.
func NewResult(name string, r *control.Result) Result {
	out := Result{
		Name:        name,
		GradientK:   r.GradientK,
		PeakC:       units.ToCelsius(r.PeakK),
		Objective:   r.Objective,
		Evaluations: r.Evaluations,
	}
	for _, dp := range r.PressureDrops {
		out.PressureDropsBar = append(out.PressureDropsBar, units.ToBar(dp))
	}
	for _, p := range r.Profiles {
		ws := p.Widths()
		um := make([]float64, len(ws))
		for i, w := range ws {
			um[i] = units.ToMicrometers(w)
		}
		out.ProfilesUM = append(out.ProfilesUM, um)
	}
	return out
}

// WriteResult writes the result projection as indented JSON.
func WriteResult(w io.Writer, res Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return fmt.Errorf("scenario: encode result: %w", err)
	}
	return nil
}

// Example returns a ready-to-edit example scenario (two channels, one with
// a hotspot, plus a periodic trace whose hotspot migrates between the
// channels and a runtime-controller section), used by
// `chanmod -write-example`.
func Example() *File {
	full, idle := 1.0, 0.2
	return &File{
		Name:     "example-two-channel",
		Segments: 10,
		Channels: []Channel{
			{TopWcm2: []float64{50, 50, 50, 50, 50}, BottomWcm2: []float64{50, 50, 50, 50, 50}},
			{TopWcm2: []float64{30, 30, 180, 30, 30}, BottomWcm2: []float64{30, 30, 30, 30, 30}},
		},
		EqualPressure: true,
		Trace: &Trace{
			Periodic: true,
			Phases: []Phase{
				{DurationMS: 20, Scale: &full},
				{DurationMS: 20, Scale: &idle},
				{DurationMS: 20, Channels: []Channel{
					{TopWcm2: []float64{30, 30, 180, 30, 30}, BottomWcm2: []float64{30, 30, 30, 30, 30}},
					{TopWcm2: []float64{50, 50, 50, 50, 50}, BottomWcm2: []float64{50, 50, 50, 50, 50}},
				}},
			},
		},
		Runtime: &Runtime{EpochMS: 10, HorizonMS: 120, FlowScaleRange: [2]float64{0.5, 2}},
	}
}

// Clone returns a deep copy of the file that shares no pointer or
// backing array with f. Empty lists of omitempty fields come back nil,
// as they do from f's JSON form decoded, so the copy validates and
// encodes exactly like that form.
func (f *File) Clone() File {
	c := *f
	c.Seed = clonePtr(f.Seed)
	c.Params.InletTempC = clonePtr(f.Params.InletTempC)
	c.Channels = cloneChannels(f.Channels)
	if f.Floorplan != nil {
		fp := *f.Floorplan
		fp.Top.Blocks = cloneList(fp.Top.Blocks)
		fp.Bottom.Blocks = cloneList(fp.Bottom.Blocks)
		c.Floorplan = &fp
	}
	if f.Trace != nil {
		tr := *f.Trace
		if tr.Phases != nil {
			tr.Phases = make([]Phase, len(f.Trace.Phases))
			for i, ph := range f.Trace.Phases {
				ph.Scale = clonePtr(ph.Scale)
				ph.Channels = cloneChannels(ph.Channels)
				tr.Phases[i] = ph
			}
		}
		c.Trace = &tr
	}
	c.Runtime = clonePtr(f.Runtime)
	return c
}

// cloneChannels deep-copies an omitempty channel list.
func cloneChannels(chs []Channel) []Channel {
	if len(chs) == 0 {
		return nil
	}
	out := make([]Channel, len(chs))
	for k, ch := range chs {
		out[k] = Channel{TopWcm2: slices.Clone(ch.TopWcm2), BottomWcm2: slices.Clone(ch.BottomWcm2)}
	}
	return out
}

// cloneList copies an omitempty list; an empty one becomes nil.
func cloneList[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}
