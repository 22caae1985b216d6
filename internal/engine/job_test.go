package engine

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// twoChannelScenario builds a small explicit-channel scenario.
func twoChannelScenario() scenario.File {
	return scenario.File{
		Name:     "unit",
		Segments: 4,
		Channels: []scenario.Channel{
			{TopWcm2: []float64{50, 50}, BottomWcm2: []float64{50, 50}},
			{TopWcm2: []float64{30, 180}, BottomWcm2: []float64{30, 30}},
		},
	}
}

// tracedScenario extends the two-channel scenario with a trace and
// runtime section (for transient/runtime jobs).
func tracedScenario() scenario.File {
	f := twoChannelScenario()
	full, idle := 1.0, 0.2
	f.Trace = &scenario.Trace{
		Periodic: true,
		Phases: []scenario.Phase{
			{DurationMS: 10, Scale: &full},
			{DurationMS: 10, Scale: &idle},
		},
	}
	f.Runtime = &scenario.Runtime{EpochMS: 5, HorizonMS: 40, NX: 8}
	return f
}

func mustHash(t *testing.T, j *Job) string {
	t.Helper()
	h, err := j.Hash()
	if err != nil {
		t.Fatalf("Hash(%+v): %v", j, err)
	}
	return h
}

// TestHashIgnoresCosmetics: names, resolved defaults and sections the
// kind does not consume must not influence the content address.
func TestHashIgnoresCosmetics(t *testing.T) {
	base := &Job{Kind: KindCompare, Scenario: twoChannelScenario()}
	h0 := mustHash(t, base)

	t.Run("name", func(t *testing.T) {
		j := &Job{Kind: KindCompare, Scenario: twoChannelScenario()}
		j.Scenario.Name = "a completely different label"
		if h := mustHash(t, j); h != h0 {
			t.Errorf("name changed the hash: %s vs %s", h, h0)
		}
	})
	t.Run("resolved defaults", func(t *testing.T) {
		j := &Job{Kind: KindCompare, Scenario: twoChannelScenario()}
		j.Scenario.Solver = "lbfgsb"
		j.Scenario.Gradient = "adjoint"
		j.Scenario.MaxPressureBar = 10
		j.Scenario.BoundsUM = [2]float64{10, 50}
		if h := mustHash(t, j); h != h0 {
			t.Errorf("explicit defaults changed the hash: %s vs %s", h, h0)
		}
	})
	t.Run("ignored trace", func(t *testing.T) {
		j := &Job{Kind: KindCompare, Scenario: tracedScenario()}
		if h := mustHash(t, j); h != h0 {
			t.Errorf("a compare job hashed its unused trace: %s vs %s", h, h0)
		}
	})
	t.Run("inert arch-experiment mode", func(t *testing.T) {
		mk := func(mode string) *Job {
			return &Job{Kind: KindArchExperiment, Scenario: scenario.File{Mode: mode},
				Experiment: &ExperimentSpec{Archs: []int{1}, Modes: []string{"peak"}}}
		}
		if mustHash(t, mk("")) != mustHash(t, mk("average")) {
			t.Error("arch-experiment hashed the scenario mode the executor overrides per combo")
		}
	})
	t.Run("inert swept knob", func(t *testing.T) {
		mk := func(segments int) *Job {
			s := twoChannelScenario()
			s.Segments = segments
			return &Job{Kind: KindSweep, Scenario: s, Sweep: &SweepSpec{Kind: SweepSegments}}
		}
		if mustHash(t, mk(0)) != mustHash(t, mk(10)) {
			t.Error("segments sweep hashed the scenario segments it overrides per point")
		}
		mkP := func(bar float64) *Job {
			s := twoChannelScenario()
			s.MaxPressureBar = bar
			return &Job{Kind: KindSweep, Scenario: s, Sweep: &SweepSpec{Kind: SweepPressure, Points: 2}}
		}
		if mustHash(t, mkP(0)) != mustHash(t, mkP(3)) {
			t.Error("pressure sweep hashed the scenario budget it overrides per point")
		}
	})
	t.Run("inert transient valve range", func(t *testing.T) {
		mk := func(lo, hi float64) *Job {
			j := &Job{Kind: KindTransient, Scenario: tracedScenario()}
			rt := *j.Scenario.Runtime
			rt.FlowScaleRange = [2]float64{lo, hi}
			j.Scenario.Runtime = &rt
			return j
		}
		if mustHash(t, mk(0, 0)) != mustHash(t, mk(0.8, 1.25)) {
			t.Error("open-loop transient hashed the controller's valve range")
		}
	})
}

// TestHashDiscriminates: two jobs differing in any semantically
// meaningful field must never collide.
func TestHashDiscriminates(t *testing.T) {
	seen := map[string]string{}
	record := func(t *testing.T, name string, j *Job) {
		t.Helper()
		h := mustHash(t, j)
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %q and %q (%s)", prev, name, h)
		}
		seen[h] = name
		if err := CheckAgreement(j); err != nil {
			t.Error(err)
		}
	}

	base := func() *Job { return &Job{Kind: KindCompare, Scenario: twoChannelScenario()} }
	record(t, "base", base())

	cases := []struct {
		name string
		job  func() *Job
	}{
		{"segments", func() *Job { j := base(); j.Scenario.Segments = 5; return j }},
		{"outer iterations", func() *Job { j := base(); j.Scenario.OuterIterations = 2; return j }},
		{"solver", func() *Job { j := base(); j.Scenario.Solver = "projgrad"; return j }},
		{"gradient", func() *Job { j := base(); j.Scenario.Gradient = "fd"; return j }},
		{"bounds", func() *Job { j := base(); j.Scenario.BoundsUM = [2]float64{15, 45}; return j }},
		{"pressure budget", func() *Job { j := base(); j.Scenario.MaxPressureBar = 4; return j }},
		{"equal pressure", func() *Job { j := base(); j.Scenario.EqualPressure = true; return j }},
		{"flux value", func() *Job {
			j := base()
			j.Scenario.Channels[1].TopWcm2 = []float64{30, 181}
			return j
		}},
		{"flux layer", func() *Job {
			j := base()
			j.Scenario.Channels[1].TopWcm2, j.Scenario.Channels[1].BottomWcm2 =
				j.Scenario.Channels[1].BottomWcm2, j.Scenario.Channels[1].TopWcm2
			return j
		}},
		{"channel count", func() *Job {
			j := base()
			j.Scenario.Channels = j.Scenario.Channels[:1]
			return j
		}},
		{"inlet temp", func() *Job {
			j := base()
			c := 17.0
			j.Scenario.Params.InletTempC = &c
			return j
		}},
		{"flow rate", func() *Job { j := base(); j.Scenario.Params.FlowRateMLMin = 0.9; return j }},
		{"kind", func() *Job { j := base(); j.Kind = KindOptimize; return j }},
		{"preset testA", func() *Job {
			return &Job{Kind: KindCompare, Scenario: scenario.File{Preset: "testA"}}
		}},
		{"preset testB", func() *Job {
			return &Job{Kind: KindCompare, Scenario: scenario.File{Preset: "testB"}}
		}},
		{"preset testB seed", func() *Job {
			seed := int64(7)
			return &Job{Kind: KindCompare, Scenario: scenario.File{Preset: "testB", Seed: &seed}}
		}},
		{"preset testB seed zero", func() *Job {
			seed := int64(0)
			return &Job{Kind: KindCompare, Scenario: scenario.File{Preset: "testB", Seed: &seed}}
		}},
		{"preset arch mode", func() *Job {
			return &Job{Kind: KindCompare, Scenario: scenario.File{Preset: "arch1", Mode: "average"}}
		}},
		{"optimize baseline", func() *Job {
			j := base()
			j.Kind = KindOptimize
			j.Optimize = &OptimizeSpec{Variant: VariantBaseline}
			return j
		}},
		{"optimize baseline width", func() *Job {
			j := base()
			j.Kind = KindOptimize
			j.Optimize = &OptimizeSpec{Variant: VariantBaseline, WidthUM: 30}
			return j
		}},
		{"optimize min-pumping", func() *Job {
			j := base()
			j.Kind = KindOptimize
			j.Optimize = &OptimizeSpec{Variant: VariantMinPumping, MaxGradientK: 25}
			return j
		}},
		{"sweep points", func() *Job {
			j := base()
			j.Kind = KindSweep
			j.Sweep = &SweepSpec{Kind: SweepFlow, Points: 3}
			return j
		}},
		{"sweep points count", func() *Job {
			j := base()
			j.Kind = KindSweep
			j.Sweep = &SweepSpec{Kind: SweepFlow, Points: 4}
			return j
		}},
		{"sweep axis", func() *Job {
			j := base()
			j.Kind = KindSweep
			j.Sweep = &SweepSpec{Kind: SweepPressure, Points: 3}
			return j
		}},
		{"map", func() *Job {
			j := base()
			j.Kind = KindThermalMap
			j.Map = &MapSpec{}
			return j
		}},
		{"map widths", func() *Job {
			j := base()
			j.Kind = KindThermalMap
			j.Map = &MapSpec{Widths: WidthsMax}
			return j
		}},
		{"map resolution", func() *Job {
			j := base()
			j.Kind = KindThermalMap
			j.Map = &MapSpec{NX: 30}
			return j
		}},
		{"transient", func() *Job {
			return &Job{Kind: KindTransient, Scenario: tracedScenario()}
		}},
		{"transient width", func() *Job {
			return &Job{Kind: KindTransient, Scenario: tracedScenario(),
				Transient: &TransientSpec{WidthUM: 35}}
		}},
		{"runtime", func() *Job {
			return &Job{Kind: KindRuntime, Scenario: tracedScenario()}
		}},
		{"runtime valve range", func() *Job {
			j := &Job{Kind: KindRuntime, Scenario: tracedScenario()}
			j.Scenario.Runtime.FlowScaleRange = [2]float64{0.8, 1.25}
			return j
		}},
		{"trace phase duration", func() *Job {
			j := &Job{Kind: KindRuntime, Scenario: tracedScenario()}
			j.Scenario.Trace.Phases[0].DurationMS = 11
			return j
		}},
		{"arch experiment", func() *Job {
			return &Job{Kind: KindArchExperiment, Scenario: scenario.File{},
				Experiment: &ExperimentSpec{Archs: []int{1}, Modes: []string{"peak"}}}
		}},
		{"arch experiment axes", func() *Job {
			return &Job{Kind: KindArchExperiment, Scenario: scenario.File{},
				Experiment: &ExperimentSpec{Archs: []int{1, 2}, Modes: []string{"peak"}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { record(t, tc.name, tc.job()) })
	}
}

// TestCanonicalizeRejects: unexecutable jobs fail at submission.
func TestCanonicalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		job  *Job
		want string
	}{
		{"unknown kind", &Job{Kind: "frobnicate", Scenario: twoChannelScenario()}, "unknown job kind"},
		{"section mismatch", &Job{Kind: KindCompare, Scenario: twoChannelScenario(),
			Sweep: &SweepSpec{Kind: SweepFlow}}, "cannot carry"},
		{"sweep without section", &Job{Kind: KindSweep, Scenario: twoChannelScenario()}, "needs a sweep section"},
		{"sweep unknown axis", &Job{Kind: KindSweep, Scenario: twoChannelScenario(),
			Sweep: &SweepSpec{Kind: "voltage"}}, "unknown sweep kind"},
		{"no channels", &Job{Kind: KindCompare, Scenario: scenario.File{}}, "no channels"},
		{"preset and channels", &Job{Kind: KindCompare, Scenario: scenario.File{
			Preset:   "testA",
			Channels: twoChannelScenario().Channels,
		}}, "both preset"},
		{"unknown preset", &Job{Kind: KindCompare, Scenario: scenario.File{Preset: "testC"}}, "unknown preset"},
		{"fig1 compare", &Job{Kind: KindCompare, Scenario: scenario.File{Preset: "fig1a"}}, "grid-map stack"},
		{"fig1 optimal map", &Job{Kind: KindThermalMap, Scenario: scenario.File{Preset: "fig1a"},
			Map: &MapSpec{Widths: WidthsOptimal}}, "unsupported"},
		{"fig1 params override", &Job{Kind: KindThermalMap, Scenario: scenario.File{
			Preset: "fig1a", Params: scenario.Params{FlowRateMLMin: 5},
		}}, "fixed parameters"},
		{"runtime without trace", &Job{Kind: KindRuntime, Scenario: twoChannelScenario()}, "no trace"},
		{"bad optimize variant", &Job{Kind: KindOptimize, Scenario: twoChannelScenario(),
			Optimize: &OptimizeSpec{Variant: "annealing"}}, "unknown optimize variant"},
		{"min-pumping without cap", &Job{Kind: KindOptimize, Scenario: twoChannelScenario(),
			Optimize: &OptimizeSpec{Variant: VariantMinPumping}}, "max_gradient_k"},
		{"arch experiment with preset", &Job{Kind: KindArchExperiment,
			Scenario: scenario.File{Preset: "arch1"}}, "experiment section"},
		{"bad experiment arch", &Job{Kind: KindArchExperiment, Scenario: scenario.File{},
			Experiment: &ExperimentSpec{Archs: []int{4}}}, "unknown architecture"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.job.Canonicalize()
			if err == nil {
				t.Fatalf("Canonicalize accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if err := CheckAgreement(tc.job); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCanonicalizeDoesNotMutate: the input job must stay untouched.
func TestCanonicalizeDoesNotMutate(t *testing.T) {
	j := &Job{Kind: KindCompare, Scenario: twoChannelScenario()}
	if _, err := j.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if j.Scenario.Name != "unit" || j.Scenario.Solver != "" || j.Scenario.MaxPressureBar != 0 {
		t.Errorf("Canonicalize mutated its input: %+v", j.Scenario)
	}
}

// TestJobRoundTrip: a canonical job survives a JSON round trip with an
// identical hash (the daemon's submit path).
func TestJobRoundTrip(t *testing.T) {
	j := &Job{Kind: KindRuntime, Scenario: tracedScenario()}
	h0 := mustHash(t, j)
	c, err := j.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	rt := JSONClone(t, c)
	if h, err := rt.Hash(); err != nil || h != h0 {
		t.Errorf("round-tripped hash %s (err %v), want %s", h, err, h0)
	}
}
