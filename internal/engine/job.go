// Package engine turns every workload of the library into a declarative,
// content-addressed Job: one canonical description (kind + scenario
// payload + kind-specific options) that serializes to JSON, hashes
// deterministically, and executes through a single pipeline built on the
// bounded worker pool of package batch. An Engine fronts the pipeline
// with an LRU result cache keyed by the content hash and deduplicates
// concurrent identical submissions (singleflight), so N clients asking
// for the same job cost one solve.
//
// The four CLI front-ends (chanmod, sweep, experiments, thermalmap) and
// the chanmodd HTTP daemon all assemble Jobs and render the typed
// Results; no workload is reachable only through hand-wired Go anymore.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/grid"
	"repro/internal/scenario"
)

// Kind names a job's workload class.
type Kind string

const (
	// KindCompare runs the paper's three-way evaluation (min width, max
	// width, optimal modulation) of the scenario.
	KindCompare Kind = "compare"
	// KindOptimize solves one design problem; the optional OptimizeSpec
	// selects the variant (modulation, baseline, flow-allocation,
	// min-pumping).
	KindOptimize Kind = "optimize"
	// KindSweep evaluates a one-dimensional parameter sweep (pressure
	// budget, control discretization, or coolant flow) over the scenario.
	KindSweep Kind = "sweep"
	// KindArchExperiment runs the Fig. 8 grid: the three Fig. 7
	// architectures × power modes, each a three-way comparison.
	KindArchExperiment Kind = "arch-experiment"
	// KindThermalMap solves the finite-volume grid simulator over the
	// scenario's stack and returns the resolved 2D temperature field.
	KindThermalMap Kind = "thermalmap"
	// KindTransient integrates the transient plant over the scenario's
	// trace with static actuation (open loop).
	KindTransient Kind = "transient"
	// KindRuntime runs the closed-loop runtime flow-control experiment:
	// static arm vs per-epoch flow re-optimization.
	KindRuntime Kind = "runtime"
)

// Kinds lists every job kind in documentation order.
var Kinds = []Kind{
	KindCompare, KindOptimize, KindSweep, KindArchExperiment,
	KindThermalMap, KindTransient, KindRuntime,
}

// Valid reports whether k names a known kind.
func (k Kind) Valid() bool {
	for _, v := range Kinds {
		if k == v {
			return true
		}
	}
	return false
}

// Job is the canonical unit of work: a kind, the scenario payload, and
// the kind-specific options. A Job is pure data — it marshals to JSON,
// round-trips losslessly, and two Jobs describing the same computation
// hash identically (see Hash).
type Job struct {
	// Kind selects the workload.
	Kind Kind `json:"kind"`
	// Scenario is the problem payload (explicit channels or a preset).
	Scenario scenario.File `json:"scenario"`
	// Optimize configures the optimize kind's variant.
	Optimize *OptimizeSpec `json:"optimize,omitempty"`
	// Sweep configures the sweep kind.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Experiment configures the arch-experiment kind.
	Experiment *ExperimentSpec `json:"experiment,omitempty"`
	// Map configures the thermalmap kind.
	Map *MapSpec `json:"map,omitempty"`
	// Transient configures the transient kind.
	Transient *TransientSpec `json:"transient,omitempty"`
}

// OptimizeSpec selects and parameterizes the optimize kind's variant.
type OptimizeSpec struct {
	// Variant is "modulation" (default: the paper's width optimization),
	// "baseline" (evaluate a uniform width), "flow-allocation" (uniform
	// widths, per-channel flow clustering — the Qian-style baseline),
	// "min-pumping" (the Sec. IV-B dual: minimize ΔP subject to a
	// gradient cap) or "trace-design" (the design-time optimization
	// against the scenario trace's time-average loads — the sub-problem
	// transient and runtime jobs resolve, factored out so concurrent
	// experiments over one trace share a single cached design solve).
	Variant string `json:"variant,omitempty"`
	// WidthUM is the uniform width in µm for the baseline and
	// flow-allocation variants (zero → the scenario's upper width bound).
	WidthUM float64 `json:"width_um,omitempty"`
	// FlowScaleRange bounds the flow-allocation multipliers
	// ([0, 0] → [0.5, 2]).
	FlowScaleRange [2]float64 `json:"flow_scale_range,omitempty"`
	// MaxGradientK is the min-pumping variant's gradient cap in kelvin.
	MaxGradientK float64 `json:"max_gradient_k,omitempty"`
}

// Optimize variants.
const (
	VariantModulation     = "modulation"
	VariantBaseline       = "baseline"
	VariantFlowAllocation = "flow-allocation"
	VariantMinPumping     = "min-pumping"
	VariantTraceDesign    = "trace-design"
)

// SweepSpec describes a one-dimensional sweep over copies of the
// scenario. Exactly one axis is swept; explicit point lists win over
// Points, and canonicalization materializes the default lists so the
// hash covers the actual evaluated points.
type SweepSpec struct {
	// Kind is "pressure" (A2), "segments" (A1) or "flow".
	Kind string `json:"kind"`
	// Points sizes the default point list (zero → 5). Ignored when an
	// explicit list is given.
	Points int `json:"points,omitempty"`
	// PressureBars lists explicit ΔPmax points in bar (default: 1, 2, 4,
	// … doubling for Points points).
	PressureBars []float64 `json:"pressure_bars,omitempty"`
	// Segments lists explicit discretization points (default 2, 5, 10,
	// 20, 40).
	Segments []int `json:"segments,omitempty"`
	// FlowMLMin lists explicit per-channel flow points in ml/min
	// (default 0.24·(i+1) for Points points).
	FlowMLMin []float64 `json:"flow_ml_min,omitempty"`
}

// Sweep axes.
const (
	SweepPressure = "pressure"
	SweepSegments = "segments"
	SweepFlow     = "flow"
)

// ExperimentSpec configures the arch-experiment grid (the paper's
// Fig. 8). Solver, segments, budgets and bounds come from the job's
// scenario.
type ExperimentSpec struct {
	// Archs lists the Fig. 7 architectures to run (default 1, 2, 3).
	Archs []int `json:"archs,omitempty"`
	// Modes lists the power modes (default "peak", "average").
	Modes []string `json:"modes,omitempty"`
}

// MapSpec configures the thermalmap kind.
type MapSpec struct {
	// Widths selects the channel-width field: "uniform" (default; see
	// WidthUM), "min"/"max" (the scenario's fabrication bounds) or
	// "optimal" (solve the scenario's modulation problem first — the
	// Fig. 9 rendering path; unsupported for the fig1 presets).
	Widths string `json:"widths,omitempty"`
	// WidthUM is the uniform channel width in µm (zero → 50).
	WidthUM float64 `json:"width_um,omitempty"`
	// NX and NY override the grid resolution (zero → the stack default).
	NX int `json:"nx,omitempty"`
	NY int `json:"ny,omitempty"`
}

// Width-field policies of MapSpec.
const (
	WidthsUniform = "uniform"
	WidthsMin     = "min"
	WidthsMax     = "max"
	WidthsOptimal = "optimal"
)

// TransientSpec configures the transient kind.
type TransientSpec struct {
	// WidthUM runs the plant at this uniform channel width; zero designs
	// the width profiles against the trace's time-average loads first
	// (the static-optimal modulation).
	WidthUM float64 `json:"width_um,omitempty"`
}

// canonicalizeEngineKnob resolves the runtime section's transient.engine
// knob to its canonical spelling: aliases of the default factor-once LU
// engine ("lu", "direct", "direct-lu") collapse to the empty string, so
// jobs that merely spell out the default hash identically to jobs that
// omit it; non-default engines keep their one canonical name.
func canonicalizeEngineKnob(rt *scenario.Runtime) error {
	eng, err := grid.ParseTransientEngine(rt.Engine)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if eng == grid.EngineDirect {
		rt.Engine = ""
	} else {
		rt.Engine = eng.String()
	}
	return nil
}

// hashDomain versions the hash so persisted hashes cannot collide across
// incompatible canonicalization rules.
const hashDomain = "chanmod/job/v1\n"

// Canonicalize validates the job and returns a semantically equivalent
// copy in canonical form: cosmetic fields cleared (scenario name),
// defaults resolved (segments, bounds, pressure budget, solver, sweep
// point lists, experiment axes, width policies), and sections the kind
// does not consume stripped (a compare job ignores — and therefore does
// not hash — the scenario's trace). Two jobs describing different
// computations always canonicalize to different values; jobs differing
// only cosmetically canonicalize identically.
//
//chanmod:hashdet
func (j *Job) Canonicalize() (*Job, error) {
	if !j.Kind.Valid() {
		return nil, fmt.Errorf("engine: unknown job kind %q", j.Kind)
	}
	c := clone(j)
	if err := c.canonicalize(); err != nil {
		return nil, err
	}
	if err := c.checkScenario(); err != nil {
		return nil, err
	}
	return c, nil
}

// canonicalize brings a copy of a job of a valid kind into canonical
// form and runs the checks of its options.
func (j *Job) canonicalize() error {
	// Cosmetic fields never reach the hash.
	j.Scenario.Name = ""

	if err := j.checkSections(); err != nil {
		return err
	}
	j.applyScenarioDefaults()

	switch j.Kind {
	case KindOptimize:
		if j.Optimize == nil {
			j.Optimize = &OptimizeSpec{}
		}
		if err := j.Optimize.canonicalize(); err != nil {
			return err
		}
	case KindSweep:
		if j.Sweep == nil {
			return fmt.Errorf("engine: sweep job needs a sweep section")
		}
		if err := j.Sweep.canonicalize(); err != nil {
			return err
		}
		// The swept axis overrides the matching scenario knob at every
		// point, so that knob is inert and must not hash.
		switch j.Sweep.Kind {
		case SweepPressure:
			j.Scenario.MaxPressureBar = 10
		case SweepSegments:
			j.Scenario.Segments = 20
		case SweepFlow:
			j.Scenario.Params.FlowRateMLMin = 0
		}
	case KindArchExperiment:
		if j.Experiment == nil {
			j.Experiment = &ExperimentSpec{}
		}
		if err := j.Experiment.canonicalize(); err != nil {
			return err
		}
	case KindThermalMap:
		if j.Map == nil {
			j.Map = &MapSpec{}
		}
		if err := j.Map.canonicalize(); err != nil {
			return err
		}
	case KindTransient:
		if j.Transient == nil {
			j.Transient = &TransientSpec{}
		}
		if j.Transient.WidthUM < 0 {
			return fmt.Errorf("engine: negative transient width %g µm", j.Transient.WidthUM)
		}
		if rt := j.Scenario.Runtime; rt != nil {
			if err := canonicalizeEngineKnob(rt); err != nil {
				return err
			}
			// No controller runs in an open-loop transient, so the valve
			// range is inert and must not hash. EpochMS stays: the
			// horizon rounds up to whole epochs, so it shapes the
			// simulated span.
			rt.FlowScaleRange = [2]float64{}
			if *rt == (scenario.Runtime{}) {
				j.Scenario.Runtime = nil
			}
		}
	case KindRuntime:
		if rt := j.Scenario.Runtime; rt != nil {
			if err := canonicalizeEngineKnob(rt); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkScenario runs the kind's scenario checks on a canonical job:
// unbuildable jobs fail at submission, not deep inside a worker. The
// checks are the ones the builders run, without building, so execution
// builds each spec once.
func (j *Job) checkScenario() error {
	switch j.Kind {
	case KindCompare, KindOptimize, KindSweep:
		if j.isTraceDesign() {
			return j.Scenario.CheckTrace()
		}
		return j.Scenario.Check()
	case KindTransient, KindRuntime:
		return j.Scenario.CheckRuntime()
	case KindThermalMap:
		if scenario.IsMapOnlyPreset(j.Scenario.Preset) {
			if len(j.Scenario.Channels) != 0 || j.Scenario.Floorplan != nil {
				return fmt.Errorf("engine: preset %q sets both a grid-map preset and explicit loads", j.Scenario.Preset)
			}
			if j.Map.Widths != WidthsUniform {
				return fmt.Errorf("engine: map widths %q is unsupported for the fixed-map preset %q (only uniform)", j.Map.Widths, j.Scenario.Preset)
			}
			// The fig1 stacks have fixed parameters; accepting overrides
			// here would silently simulate something else.
			if j.Scenario.Params != (scenario.Params{}) {
				return fmt.Errorf("engine: preset %q has fixed parameters; params overrides are not supported", j.Scenario.Preset)
			}
			return nil
		}
		return j.Scenario.Check()
	case KindArchExperiment:
		if j.Scenario.Preset != "" || len(j.Scenario.Channels) != 0 || j.Scenario.Floorplan != nil {
			return fmt.Errorf("engine: arch-experiment jobs carry their stacks in the experiment section; the scenario must have no preset, channels or floorplan")
		}
		_, err := j.Scenario.FloorplanMode()
		return err
	}
	return nil
}

// isTraceDesign reports whether the job is the trace-design optimize
// variant (the only steady-state kind that consumes the scenario trace).
func (j *Job) isTraceDesign() bool {
	return j.Kind == KindOptimize && j.Optimize != nil && j.Optimize.Variant == VariantTraceDesign
}

// checkSections rejects kind-section mismatches: carrying an option
// block the kind cannot consume is almost certainly a caller bug, and
// silently ignoring it would make two different intents hash apart.
func (j *Job) checkSections() error {
	type section struct {
		name string
		set  bool
		kind Kind
	}
	for _, s := range []section{
		{"optimize", j.Optimize != nil, KindOptimize},
		{"sweep", j.Sweep != nil, KindSweep},
		{"experiment", j.Experiment != nil, KindArchExperiment},
		{"map", j.Map != nil, KindThermalMap},
		{"transient", j.Transient != nil, KindTransient},
	} {
		if s.set && j.Kind != s.kind {
			return fmt.Errorf("engine: %s job cannot carry a %q section", j.Kind, s.name)
		}
	}
	return nil
}

// applyScenarioDefaults resolves the scenario's zero-value defaults and
// strips the parts the kind does not consume, so that semantically
// identical submissions share a hash.
func (j *Job) applyScenarioDefaults() {
	s := &j.Scenario
	// The steady-state, grid and experiment kinds take no time-varying
	// sections; only transient, runtime and trace-design jobs hash the
	// trace, and only the first two hash the controller timing.
	if j.Kind != KindTransient && j.Kind != KindRuntime {
		if !j.isTraceDesign() {
			s.Trace = nil
		}
		s.Runtime = nil
	}
	if scenario.IsMapOnlyPreset(s.Preset) {
		// The fig1 stacks have fixed power maps and no optimizable
		// channel structure: every solver-facing knob is inert, so none
		// of them may influence the hash.
		s.Segments, s.OuterIterations = 0, 0
		s.MaxPressureBar = 0
		s.BoundsUM = [2]float64{}
		s.EqualPressure = false
		s.Solver = ""
		s.Gradient = ""
		s.Mode = ""
		s.Seed = nil
		return
	}
	if s.Segments == 0 {
		s.Segments = 20
	}
	if s.BoundsUM == [2]float64{} {
		s.BoundsUM = [2]float64{10, 50}
	}
	if s.MaxPressureBar == 0 {
		s.MaxPressureBar = 10
	}
	if s.Solver == "" {
		s.Solver = "lbfgsb"
	}
	if s.Gradient == "" {
		s.Gradient = "adjoint"
	}
	if s.Preset == "testB" && s.Seed == nil {
		seed := int64(2012)
		s.Seed = &seed
	}
	if fp := s.Floorplan; fp != nil && fp.FluxSegments == 0 {
		// Materialize the rasterization default so the hash covers the
		// resolution the power maps are actually integrated at.
		fp.FluxSegments = 8
	}
	// Modes only select the power maps of arch presets and of scenario
	// floorplans. Arch-experiment jobs carry their modes in the experiment
	// section (the executor overrides the scenario's per combo), so the
	// scenario field is inert there and must not hash.
	isArch := len(s.Preset) == 5 && s.Preset[:4] == "arch"
	hasMode := isArch || s.Floorplan != nil
	if hasMode && s.Mode == "" {
		s.Mode = "peak"
	}
	if !hasMode {
		s.Mode = ""
	}
	if s.Preset != "testB" {
		s.Seed = nil
	}
}

func (o *OptimizeSpec) canonicalize() error {
	if o.Variant == "" {
		o.Variant = VariantModulation
	}
	switch o.Variant {
	case VariantModulation, VariantMinPumping, VariantTraceDesign:
		if o.WidthUM != 0 {
			return fmt.Errorf("engine: optimize variant %q takes no width_um", o.Variant)
		}
	case VariantBaseline, VariantFlowAllocation:
	default:
		return fmt.Errorf("engine: unknown optimize variant %q", o.Variant)
	}
	if o.Variant == VariantFlowAllocation && o.FlowScaleRange == [2]float64{} {
		o.FlowScaleRange = [2]float64{0.5, 2}
	}
	if o.Variant != VariantFlowAllocation && o.FlowScaleRange != [2]float64{} {
		return fmt.Errorf("engine: optimize variant %q takes no flow_scale_range", o.Variant)
	}
	if o.Variant == VariantMinPumping && !(o.MaxGradientK > 0) {
		return fmt.Errorf("engine: min-pumping needs a positive max_gradient_k")
	}
	if o.Variant != VariantMinPumping && o.MaxGradientK != 0 {
		return fmt.Errorf("engine: optimize variant %q takes no max_gradient_k", o.Variant)
	}
	if o.WidthUM < 0 {
		return fmt.Errorf("engine: negative width %g µm", o.WidthUM)
	}
	return nil
}

func (s *SweepSpec) canonicalize() error {
	points := s.Points
	if points <= 0 {
		points = 5
	}
	switch s.Kind {
	case SweepPressure:
		if len(s.Segments) != 0 || len(s.FlowMLMin) != 0 {
			return fmt.Errorf("engine: pressure sweep takes only pressure_bars points")
		}
		if len(s.PressureBars) == 0 {
			s.PressureBars = make([]float64, points)
			for i := range s.PressureBars {
				s.PressureBars[i] = float64(int(1) << uint(i)) // 1, 2, 4, 8, …
			}
		}
		for _, b := range s.PressureBars {
			if !(b > 0) {
				return fmt.Errorf("engine: non-positive pressure point %g bar", b)
			}
		}
	case SweepSegments:
		if len(s.PressureBars) != 0 || len(s.FlowMLMin) != 0 {
			return fmt.Errorf("engine: segments sweep takes only segments points")
		}
		if len(s.Segments) == 0 {
			s.Segments = []int{2, 5, 10, 20, 40}
		}
		for _, k := range s.Segments {
			if k < 1 {
				return fmt.Errorf("engine: invalid segment count %d", k)
			}
		}
	case SweepFlow:
		if len(s.PressureBars) != 0 || len(s.Segments) != 0 {
			return fmt.Errorf("engine: flow sweep takes only flow_ml_min points")
		}
		if len(s.FlowMLMin) == 0 {
			s.FlowMLMin = make([]float64, points)
			for i := range s.FlowMLMin {
				s.FlowMLMin[i] = 0.24 * float64(i+1)
			}
		}
		for _, f := range s.FlowMLMin {
			if !(f > 0) {
				return fmt.Errorf("engine: non-positive flow point %g ml/min", f)
			}
		}
	default:
		return fmt.Errorf("engine: unknown sweep kind %q (want pressure, segments or flow)", s.Kind)
	}
	s.Points = 0 // materialized into the explicit list above
	return nil
}

func (e *ExperimentSpec) canonicalize() error {
	if len(e.Archs) == 0 {
		e.Archs = []int{1, 2, 3}
	}
	for _, a := range e.Archs {
		if a < 1 || a > 3 {
			return fmt.Errorf("engine: unknown architecture %d (want 1–3)", a)
		}
	}
	if len(e.Modes) == 0 {
		e.Modes = []string{"peak", "average"}
	}
	for _, m := range e.Modes {
		if m != "peak" && m != "average" {
			return fmt.Errorf("engine: unknown power mode %q", m)
		}
	}
	return nil
}

func (m *MapSpec) canonicalize() error {
	if m.Widths == "" {
		m.Widths = WidthsUniform
	}
	switch m.Widths {
	case WidthsUniform:
		if m.WidthUM == 0 {
			m.WidthUM = 50
		}
		if !(m.WidthUM > 0) {
			return fmt.Errorf("engine: non-positive map width %g µm", m.WidthUM)
		}
	case WidthsMin, WidthsMax, WidthsOptimal:
		if m.WidthUM != 0 {
			return fmt.Errorf("engine: map widths %q takes no width_um", m.Widths)
		}
	default:
		return fmt.Errorf("engine: unknown map widths %q (want uniform, min, max or optimal)", m.Widths)
	}
	if m.NX < 0 || m.NY < 0 {
		return fmt.Errorf("engine: negative map resolution %d×%d", m.NX, m.NY)
	}
	return nil
}

// Hash canonicalizes the job and returns its content address: the
// SHA-256 (hex) of the canonical JSON under a versioned domain prefix.
// Jobs that compute different things never share a hash; jobs differing
// only cosmetically (name, resolved defaults, ignored sections) always
// do.
//
//chanmod:hashdet
func (j *Job) Hash() (string, error) {
	c, err := j.Canonicalize()
	if err != nil {
		return "", err
	}
	hash, _, err := c.canonicalHash()
	return hash, err
}

// canonicalHash hashes an already-canonical job and returns the length
// of the canonical JSON it hashed.
//
//chanmod:hashdet
func (j *Job) canonicalHash() (string, int, error) {
	b, err := json.Marshal(j)
	if err != nil {
		return "", 0, fmt.Errorf("engine: hash job: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(hashDomain))
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), len(b), nil
}

// clone deep-copies a job: the copy shares no pointer or backing array
// with j, and empty lists of omitempty fields come back nil, exactly as
// from the job's JSON form decoded (the reference the tests hold it to).
func clone(j *Job) *Job {
	c := *j
	c.Scenario = j.Scenario.Clone()
	if j.Optimize != nil {
		o := *j.Optimize
		c.Optimize = &o
	}
	if j.Sweep != nil {
		s := *j.Sweep
		s.PressureBars = cloneList(s.PressureBars)
		s.Segments = cloneList(s.Segments)
		s.FlowMLMin = cloneList(s.FlowMLMin)
		c.Sweep = &s
	}
	if j.Experiment != nil {
		e := *j.Experiment
		e.Archs = cloneList(e.Archs)
		e.Modes = cloneList(e.Modes)
		c.Experiment = &e
	}
	if j.Map != nil {
		m := *j.Map
		c.Map = &m
	}
	if j.Transient != nil {
		t := *j.Transient
		c.Transient = &t
	}
	return &c
}

// cloneList copies an omitempty list; an empty one becomes nil.
func cloneList[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}
