package scenario_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/scenario/scenariotest"
)

// TestChecksAgreeWithBuilders: Check, CheckTrace and CheckRuntime accept
// exactly the documents their builders accept, with the same error text,
// over this package's invalid fixtures and a set of edge documents.
func TestChecksAgreeWithBuilders(t *testing.T) {
	full, idle := 1.0, 0.0
	one := 1.0
	tiny := math.SmallestNonzeroFloat64
	chans := []scenario.Channel{{TopWcm2: []float64{50, 80}, BottomWcm2: []float64{40}}}
	docs := append(scenario.InvalidFixtures(),
		scenario.Example(),
		&scenario.File{Preset: "testA"},
		&scenario.File{Preset: "testB", Seed: new(int64)},
		&scenario.File{Preset: "arch2", Mode: "average", BoundsUM: [2]float64{12, 40}},
		&scenario.File{Preset: "testA", Params: scenario.Params{InletTempC: &idle, FlowRateMLMin: 0.5}},
		&scenario.File{Preset: "testA", BoundsUM: [2]float64{0, 50}},
		&scenario.File{Preset: "testA", Gradient: "newton"},
		&scenario.File{Preset: "testA", Floorplan: &scenario.Floorplan{}},
		&scenario.File{Channels: chans, Segments: -1},
		&scenario.File{Channels: chans, MaxPressureBar: -2},
		&scenario.File{Channels: chans, BoundsUM: [2]float64{10, 150}},
		&scenario.File{Channels: chans, Params: scenario.Params{LengthMM: tiny}},
		&scenario.File{Channels: []scenario.Channel{{TopWcm2: []float64{1e305}, BottomWcm2: []float64{1}}}},
		&scenario.File{Channels: chans, Floorplan: &scenario.Floorplan{FluxSegments: -1}},
		&scenario.File{Floorplan: &scenario.Floorplan{FluxSegments: -1}},
		&scenario.File{Floorplan: &scenario.Floorplan{Top: scenario.Die{WidthMM: 1}, Bottom: scenario.Die{WidthMM: 1}}, Mode: "idle"},
		&scenario.File{Floorplan: &scenario.Floorplan{Top: scenario.Die{WidthMM: 2}, Bottom: scenario.Die{WidthMM: 2, BackgroundWcm2: -1}}},
		&scenario.File{Floorplan: &scenario.Floorplan{Top: scenario.Die{WidthMM: 2}, Bottom: scenario.Die{WidthMM: 2}},
			Trace: &scenario.Trace{Phases: []scenario.Phase{{DurationMS: 1, Channels: chans}}}},
		&scenario.File{Channels: chans, Trace: &scenario.Trace{Phases: []scenario.Phase{
			{DurationMS: 1, Scale: &full}, {DurationMS: -1, Channels: []scenario.Channel{{TopWcm2: []float64{}, BottomWcm2: []float64{1}}}}}}},
		&scenario.File{Channels: chans, Trace: &scenario.Trace{Phases: []scenario.Phase{{DurationMS: 1, Scale: &one}}},
			Runtime: &scenario.Runtime{Engine: "cg"}},
		&scenario.File{Channels: chans, Trace: &scenario.Trace{Phases: []scenario.Phase{{DurationMS: 1, Scale: &one}}},
			Runtime: &scenario.Runtime{FlowScaleRange: [2]float64{1.5, 2}}},
		&scenario.File{Channels: chans, Trace: &scenario.Trace{Phases: []scenario.Phase{{DurationMS: 1, Scale: &one}}},
			Runtime: &scenario.Runtime{DtMS: -1}},
	)
	for i, f := range docs {
		if err := scenariotest.CheckAgreement(f); err != nil {
			t.Errorf("document %d (%+v): %v", i, *f, err)
		}
	}
}

// TestPresetSettings: the settings the checks resolve for a preset are
// the ones its core builder gives the spec, so Spec's checks validate
// the spec it builds.
func TestPresetSettings(t *testing.T) {
	builders := map[string]func() (*control.Spec, error){
		"testA": core.TestASpec,
		"testB": func() (*control.Spec, error) { return core.TestBSpec(power.DefaultTestB()) },
		"arch1": func() (*control.Spec, error) { return core.ArchSpec(1, floorplan.Peak, control.DefaultSegments) },
		"arch3": func() (*control.Spec, error) { return core.ArchSpec(3, floorplan.Average, control.DefaultSegments) },
	}
	for name, build := range builders {
		want, err := build()
		if err != nil {
			t.Fatal(err)
		}
		f := &scenario.File{Preset: name}
		if name == "arch3" {
			f.Mode = "average"
		}
		got, err := f.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Spec() = %+v, core builder %+v", name, got, want)
		}
	}
}
