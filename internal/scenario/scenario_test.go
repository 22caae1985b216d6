package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/microchannel"
	"repro/internal/units"
)

func TestLoadMinimalScenario(t *testing.T) {
	src := `{
	  "name": "mini",
	  "channels": [{"top_wcm2": [50], "bottom_wcm2": [50]}]
	}`
	spec, f, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "mini" {
		t.Error("name")
	}
	// Defaults applied: Table I parameters and bounds.
	if math.Abs(spec.Params.Pitch-100e-6) > 1e-15 {
		t.Errorf("pitch default = %v", spec.Params.Pitch)
	}
	if math.Abs(spec.Bounds.Min-10e-6) > 1e-15 || math.Abs(spec.Bounds.Max-50e-6) > 1e-15 {
		t.Errorf("bounds default = %+v", spec.Bounds)
	}
	// Flux: 50 W/cm² on a 1 mm cluster = 500 W/m.
	if got := spec.Channels[0].FluxTop.At(0.005); math.Abs(got-500) > 1e-9 {
		t.Errorf("flux = %v", got)
	}
}

func TestLoadFullScenario(t *testing.T) {
	src := `{
	  "name": "full",
	  "params": {
	    "silicon_conductivity_w_mk": 120,
	    "pitch_um": 150,
	    "slab_height_um": 60,
	    "channel_height_um": 120,
	    "length_mm": 12,
	    "inlet_temp_c": 20,
	    "flow_rate_ml_min": 0.6,
	    "cluster_size": 5
	  },
	  "bounds_um": [12, 70],
	  "segments": 6,
	  "max_pressure_bar": 4,
	  "equal_pressure": true,
	  "solver": "neldermead",
	  "gradient": "fd",
	  "channels": [
	    {"top_wcm2": [10, 20], "bottom_wcm2": [5, 5]},
	    {"top_wcm2": [30, 30], "bottom_wcm2": [30, 30]}
	  ]
	}`
	spec, _, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Params.SiliconConductivity != 120 {
		t.Error("kSi")
	}
	if math.Abs(spec.Params.Length-0.012) > 1e-15 {
		t.Error("length")
	}
	if math.Abs(spec.Params.InletTemp-293.15) > 1e-9 {
		t.Error("inlet temp")
	}
	if spec.Params.ClusterSize != 5 {
		t.Error("cluster")
	}
	if math.Abs(spec.Bounds.Max-70e-6) > 1e-15 {
		t.Error("bounds")
	}
	if spec.Segments != 6 || !spec.EqualPressure {
		t.Error("segments / equal pressure")
	}
	if math.Abs(spec.MaxPressure-units.Bar(4)) > 1e-9 {
		t.Error("pressure")
	}
	if spec.Solver != control.SolverNelderMead {
		t.Error("solver")
	}
	if spec.Gradient != control.GradientFD {
		t.Error("gradient mode")
	}
	if len(spec.Channels) != 2 {
		t.Error("channels")
	}
}

// loadErrorCases are scenario files Load must reject.
var loadErrorCases = []string{
	`{`,            // malformed
	`{"name":"x"}`, // no channels
	`{"channels":[{"top_wcm2":[],"bottom_wcm2":[1]}]}`,                        // empty flux
	`{"solver":"magic","channels":[{"top_wcm2":[1],"bottom_wcm2":[1]}]}`,      // bad solver
	`{"gradient":"newton","channels":[{"top_wcm2":[1],"bottom_wcm2":[1]}]}`,   // bad gradient mode
	`{"unknown_field":1,"channels":[{"top_wcm2":[1],"bottom_wcm2":[1]}]}`,     // unknown field
	`{"bounds_um":[200,300],"channels":[{"top_wcm2":[1],"bottom_wcm2":[1]}]}`, // bounds above pitch
}

func TestLoadErrors(t *testing.T) {
	for i, src := range loadErrorCases {
		if _, _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("case %d must fail", i)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := Example()
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	spec, f2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Name != f.Name || len(f2.Channels) != len(f.Channels) {
		t.Fatal("round trip lost data")
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	// The hotspot channel must carry its 180 W/cm² spike.
	mid := spec.Params.Length / 2
	if got := spec.Channels[1].FluxTop.At(mid); got <= spec.Channels[1].FluxTop.At(0) {
		t.Errorf("hotspot flux not preserved: %v", got)
	}
}

// 0 °C inlet coolant must be expressible — the old `!= 0` sentinel
// silently replaced it with the Table I default (27 °C).
func TestInletTempZeroCelsius(t *testing.T) {
	src := `{
	  "name": "chilled",
	  "params": {"inlet_temp_c": 0},
	  "channels": [{"top_wcm2": [50], "bottom_wcm2": [50]}]
	}`
	spec, _, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spec.Params.InletTemp-273.15) > 1e-9 {
		t.Fatalf("0 °C inlet resolved to %v K, want 273.15", spec.Params.InletTemp)
	}
	// Absent still selects the default.
	spec, _, err = Load(strings.NewReader(`{"channels":[{"top_wcm2":[50],"bottom_wcm2":[50]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Params.InletTemp != 300 {
		t.Fatalf("absent inlet resolved to %v K, want 300", spec.Params.InletTemp)
	}
}

func TestBuildTraceAndRuntimeSpec(t *testing.T) {
	src := `{
	  "name": "traced",
	  "channels": [
	    {"top_wcm2": [100], "bottom_wcm2": [100]},
	    {"top_wcm2": [30], "bottom_wcm2": [30]}
	  ],
	  "trace": {
	    "periodic": true,
	    "phases": [
	      {"duration_ms": 10, "scale": 1},
	      {"duration_ms": 10, "scale": 0},
	      {"duration_ms": 5, "channels": [
	        {"top_wcm2": [30], "bottom_wcm2": [30]},
	        {"top_wcm2": [100], "bottom_wcm2": [100]}
	      ]}
	    ]
	  },
	  "runtime": {"dt_ms": 2, "epoch_ms": 10, "horizon_ms": 50, "flow_scale_range": [0.5, 2], "nx": 16}
	}`
	spec, f, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := f.BuildTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Channels() != 2 || len(tr.Phases) != 3 || !tr.Periodic {
		t.Fatalf("trace shape: %d channels, %d phases", tr.Channels(), len(tr.Phases))
	}
	if math.Abs(tr.Duration()-0.025) > 1e-12 {
		t.Fatalf("duration %v", tr.Duration())
	}
	// Scale 0 (explicit idle) must survive decoding — a presence bug
	// would drop the phase or misread it as full power.
	if got := tr.Phases[1].Loads[0].Top.At(0); got != 0 {
		t.Fatalf("idle phase flux %v, want 0", got)
	}
	// The explicit phase swaps the hotspot to channel 1.
	if tr.Phases[2].Loads[1].Top.At(0) <= tr.Phases[2].Loads[0].Top.At(0) {
		t.Fatal("explicit phase channels not decoded")
	}

	rs, err := f.RuntimeSpec()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Dt != 0.002 || rs.Epoch != 0.01 || rs.Horizon != 0.05 || rs.NX != 16 {
		t.Fatalf("runtime timing: %+v", rs)
	}
	if rs.FlowScaleMin != 0.5 || rs.FlowScaleMax != 2 {
		t.Fatalf("scale range: %+v", rs)
	}
}

// traceErrorBase is the valid base map of buildTraceErrorCases.
const traceErrorBase = `"channels": [{"top_wcm2": [50], "bottom_wcm2": [50]}]`

// buildTraceErrorCases are scenario files whose Spec is valid but whose
// trace BuildTrace must reject.
var buildTraceErrorCases = []string{
	`{` + traceErrorBase + `}`, // no trace at all
	`{` + traceErrorBase + `, "trace": {"phases": []}}`,
	`{` + traceErrorBase + `, "trace": {"phases": [{"duration_ms": 1}]}}`,                             // neither scale nor channels
	`{` + traceErrorBase + `, "trace": {"phases": [{"duration_ms": 1, "scale": -1}]}}`,                // negative scale
	`{` + traceErrorBase + `, "trace": {"phases": [{"duration_ms": 0, "scale": 1}]}}`,                 // zero duration
	`{` + traceErrorBase + `, "trace": {"phases": [{"duration_ms": 1, "scale": 1, "channels": []}]}}`, // scale and channels both set
	`{` + traceErrorBase + `, "trace": {"phases": [{"duration_ms": 1, "channels": [{"top_wcm2": [1], "bottom_wcm2": [1]}, {"top_wcm2": [1], "bottom_wcm2": [1]}]}]}}`, // channel count mismatch
}

func TestBuildTraceErrors(t *testing.T) {
	base := traceErrorBase
	for i, src := range buildTraceErrorCases {
		spec, f, err := Load(strings.NewReader(src))
		if err != nil {
			t.Fatalf("case %d: unexpected load error %v", i, err)
		}
		if _, err := f.BuildTrace(spec); err == nil {
			t.Errorf("case %d must fail", i)
		}
	}
	// RuntimeSpec surfaces trace errors too.
	_, f, err := Load(strings.NewReader(`{` + base + `}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RuntimeSpec(); err == nil {
		t.Error("runtime spec without trace must fail")
	}
}

// The shipped example must exercise the full schema: loadable, a valid
// runtime spec, and stable through a save/load cycle.
func TestExampleRuntimeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, Example()); err != nil {
		t.Fatal(err)
	}
	_, f, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace == nil || f.Runtime == nil {
		t.Fatal("example lost trace/runtime sections")
	}
	rs, err := f.RuntimeSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := rs.Trace.Phases[1].Loads[0].Top.At(0); got >= rs.Trace.Phases[0].Loads[0].Top.At(0) {
		t.Fatal("idle phase must be weaker than the full-power phase")
	}
}

func TestResultProjection(t *testing.T) {
	p, err := microchannel.NewProfile([]float64{50e-6, 20e-6}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	r := &control.Result{
		Profiles:      []*microchannel.Profile{p},
		GradientK:     21.5,
		PeakK:         331.8,
		PressureDrops: []float64{units.Bar(9.9)},
		Objective:     1e-4,
		Evaluations:   123,
	}
	res := NewResult("t", r)
	if res.GradientK != 21.5 || res.Evaluations != 123 {
		t.Error("scalar fields")
	}
	if math.Abs(res.PeakC-(331.8-273.15)) > 1e-9 {
		t.Errorf("peak °C = %v", res.PeakC)
	}
	if math.Abs(res.PressureDropsBar[0]-9.9) > 1e-9 {
		t.Error("drops")
	}
	if len(res.ProfilesUM) != 1 || math.Abs(res.ProfilesUM[0][1]-20) > 1e-9 {
		t.Errorf("profiles = %v", res.ProfilesUM)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"gradient_k\": 21.5") {
		t.Errorf("json: %s", buf.String())
	}
}
