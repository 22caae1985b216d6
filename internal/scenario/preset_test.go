package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/units"
)

// TestPresetTestA: the preset reproduces core.TestASpec exactly.
func TestPresetTestA(t *testing.T) {
	got, err := (&File{Preset: "testA"}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TestASpec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Params, want.Params) {
		t.Errorf("params differ: %+v vs %+v", got.Params, want.Params)
	}
	if got.Bounds != want.Bounds || got.Segments != want.Segments {
		t.Errorf("bounds/segments differ: %+v/%d vs %+v/%d",
			got.Bounds, got.Segments, want.Bounds, want.Segments)
	}
	if len(got.Channels) != len(want.Channels) {
		t.Fatalf("%d channels, want %d", len(got.Channels), len(want.Channels))
	}
	if !reflect.DeepEqual(got.Channels[0].FluxTop.Values(), want.Channels[0].FluxTop.Values()) {
		t.Errorf("flux values differ")
	}
}

// TestPresetTestBSeed: the default seed is the canonical 2012 draw and
// an explicit seed changes the fluxes.
func TestPresetTestBSeed(t *testing.T) {
	def, err := (&File{Preset: "testB"}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TestBSpec(power.DefaultTestB())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Channels[0].FluxTop.Values(), want.Channels[0].FluxTop.Values()) {
		t.Errorf("default testB preset differs from the canonical draw")
	}
	seed := int64(7)
	reseeded, err := (&File{Preset: "testB", Seed: &seed}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(reseeded.Channels[0].FluxTop.Values(), def.Channels[0].FluxTop.Values()) {
		t.Errorf("seed 7 reproduced the seed-2012 draw")
	}
	// Seed 0 is a legal draw of its own, not an alias of the default.
	zero := int64(0)
	zeroSeeded, err := (&File{Preset: "testB", Seed: &zero}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(zeroSeeded.Channels[0].FluxTop.Values(), def.Channels[0].FluxTop.Values()) {
		t.Errorf("explicit seed 0 reproduced the seed-2012 draw")
	}
}

// TestPresetArchOverrides: arch presets keep the canonical 20-segment
// power-map integration while the file's segments only move the width
// discretization; the shared-reservoir coupling stays on.
func TestPresetArchOverrides(t *testing.T) {
	f := &File{Preset: "arch2", Mode: "average", Segments: 5, OuterIterations: 3}
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Segments != 5 || spec.OuterIterations != 3 {
		t.Errorf("segments/outer = %d/%d, want 5/3", spec.Segments, spec.OuterIterations)
	}
	if !spec.EqualPressure {
		t.Error("arch preset lost the equal-pressure coupling")
	}
	if n := spec.Channels[0].FluxTop.Segments(); n != control.DefaultSegments {
		t.Errorf("power-map discretization %d, want the canonical %d", n, control.DefaultSegments)
	}
	want, err := core.ArchSpec(2, floorplan.Average, control.DefaultSegments)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Channels[0].FluxTop.Values(), want.Channels[0].FluxTop.Values()) {
		t.Errorf("arch2/average preset fluxes differ from core.ArchSpec")
	}
}

// TestPresetParamOverrides: non-geometry overrides apply; load-affecting
// geometry overrides are rejected.
func TestPresetParamOverrides(t *testing.T) {
	inlet := 17.0
	f := &File{Preset: "testA", Params: Params{FlowRateMLMin: 0.9, InletTempC: &inlet},
		BoundsUM: [2]float64{15, 45}, MaxPressureBar: 4, Solver: "projgrad"}
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Params.FlowRatePerChannel != units.MilliLitersPerMinute(0.9) {
		t.Errorf("flow-rate override not applied")
	}
	if spec.Params.InletTemp != units.Celsius(17) {
		t.Errorf("inlet override not applied")
	}
	if spec.Bounds.Min != units.Micrometers(15) || spec.Bounds.Max != units.Micrometers(45) {
		t.Errorf("bounds override not applied: %+v", spec.Bounds)
	}
	if spec.MaxPressure != units.Bar(4) {
		t.Errorf("pressure override not applied")
	}
	if spec.Solver != control.SolverProjGrad {
		t.Errorf("solver override not applied")
	}

	for _, bad := range presetGeometryOverrides {
		if _, err := bad.Spec(); err == nil || !strings.Contains(err.Error(), "cannot override") {
			t.Errorf("geometry override %+v: err = %v, want rejection", bad.Params, err)
		}
	}
}

// presetGeometryOverrides are preset files overriding geometry the
// preset loads bake in.
var presetGeometryOverrides = []File{
	{Preset: "testA", Params: Params{PitchUM: 120}},
	{Preset: "testA", Params: Params{LengthMM: 25}},
	{Preset: "testA", Params: Params{ClusterSize: 5}},
}

// presetErrorCases are inconsistent preset files.
var presetErrorCases = []struct {
	name string
	file File
	want string
}{
	{"preset plus channels", File{Preset: "testA",
		Channels: []Channel{{TopWcm2: []float64{50}, BottomWcm2: []float64{50}}}}, "both preset"},
	{"unknown preset", File{Preset: "testC"}, "unknown preset"},
	{"map-only preset", File{Preset: "fig1b"}, "grid-map stack"},
	{"bad mode", File{Preset: "arch1", Mode: "typical"}, "unknown power mode"},
	{"bad solver", File{Preset: "testA", Solver: "gurobi"}, "unknown solver"},
}

// TestPresetRejections: inconsistent preset files fail loudly.
func TestPresetRejections(t *testing.T) {
	for _, tc := range presetErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.file.Spec()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
