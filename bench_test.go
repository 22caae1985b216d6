package channelmod

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md experiment index E1–E9 plus the ablations A1–A3;
// ablation A4 runs only in cmd/experiments).
// Each benchmark runs a full experiment per iteration with example-sized
// solver budgets; cmd/experiments runs the publication budgets.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"testing"

	"repro/internal/genscen"
	"repro/internal/units"
)

// benchSpec builds a spec and shrinks it to benchmark-sized solver
// budgets.
func benchSpec(b *testing.B, mk func() (*Spec, error)) *Spec {
	b.Helper()
	spec, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	spec.Segments = 8
	spec.OuterIterations = 2
	return spec
}

// E1 — Fig. 1(a): uniform-flux 14×15 mm stack thermal map.
func BenchmarkFig1UniformMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Fig1Uniform()
		if err != nil {
			b.Fatal(err)
		}
		s.Cfg.NX, s.Cfg.NY = 42, 14
		f, err := ThermalMap(s)
		if err != nil {
			b.Fatal(err)
		}
		if f.Gradient() <= 0 {
			b.Fatal("no gradient")
		}
	}
}

// E2 — Fig. 1(b): UltraSPARC T1 power-map thermal map.
func BenchmarkFig1NiagaraMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Fig1Niagara()
		if err != nil {
			b.Fatal(err)
		}
		s.Cfg.NX, s.Cfg.NY = 42, 14
		f, err := ThermalMap(s)
		if err != nil {
			b.Fatal(err)
		}
		if f.Gradient() <= 0 {
			b.Fatal("no gradient")
		}
	}
}

// E4 — Fig. 4/5(a): Test A optimal modulation.
func BenchmarkTestAOptimize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := benchSpec(b, TestA)
		res, err := Optimize(spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.GradientK <= 0 {
			b.Fatal("bad result")
		}
	}
}

// E5 — Fig. 4/5(b): Test B optimal modulation.
func BenchmarkTestBOptimize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := benchSpec(b, func() (*Spec, error) { return TestB(DefaultTestB()) })
		res, err := Optimize(spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.GradientK <= 0 {
			b.Fatal("bad result")
		}
	}
}

// E7 — Fig. 8: the three MPSoC architectures at peak power.
func benchmarkArch(b *testing.B, arch int) {
	for i := 0; i < b.N; i++ {
		spec := benchSpec(b, func() (*Spec, error) { return Architecture(arch, Peak) })
		spec.Segments = 6
		res, err := Optimize(spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.GradientK <= 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig8Arch1(b *testing.B) { benchmarkArch(b, 1) }
func BenchmarkFig8Arch2(b *testing.B) { benchmarkArch(b, 2) }
func BenchmarkFig8Arch3(b *testing.B) { benchmarkArch(b, 3) }

// E8 — Fig. 9: Arch 1 top-die thermal map at a modulated width field.
func BenchmarkFig9Map(b *testing.B) {
	spec := benchSpec(b, func() (*Spec, error) { return Architecture(1, Peak) })
	spec.Segments = 6
	opt, err := Optimize(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs, err := ArchThermalMap(1, Peak, opt.Profiles, 0)
		if err != nil {
			b.Fatal(err)
		}
		gs.Cfg.NX = 30
		f, err := ThermalMap(gs)
		if err != nil {
			b.Fatal(err)
		}
		if f.Gradient() <= 0 {
			b.Fatal("no gradient")
		}
	}
}

// E9 — Sec. III validation: one compact-model BVP solve (the primitive the
// whole optimization stack sits on).
func BenchmarkCompactSolve(b *testing.B) {
	spec, err := TestA()
	if err != nil {
		b.Fatal(err)
	}
	spec.Segments = 1
	prof, err := NewUniformProfile(spec.Bounds.Max, spec.Params.Length, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Evaluate(spec, []*Profile{prof})
		if err != nil {
			b.Fatal(err)
		}
		if res.GradientK <= 0 {
			b.Fatal("bad solve")
		}
	}
}

// A1 — ablation: control discretization (segment count).
func BenchmarkAblationSegments(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		k := k
		b.Run(segName(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := benchSpec(b, TestA)
				spec.Segments = k
				if _, err := Optimize(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func segName(k int) string {
	switch k {
	case 4:
		return "K4"
	case 8:
		return "K8"
	default:
		return "K16"
	}
}

// A2 — ablation: pressure budget.
func BenchmarkAblationPressure(b *testing.B) {
	for _, bar := range []float64{2, 10} {
		bar := bar
		name := "2bar"
		if bar == 10 {
			name = "10bar"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := benchSpec(b, TestA)
				spec.MaxPressure = units.Bar(bar)
				if _, err := Optimize(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A3 — ablation: inner solver choice.
func BenchmarkAblationSolver(b *testing.B) {
	for _, tc := range []struct {
		name   string
		solver Solver
	}{
		{"lbfgsb", SolverLBFGSB},
		{"projgrad", SolverProjGrad},
		{"neldermead", SolverNelderMead},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := benchSpec(b, TestA)
				spec.Segments = 6
				spec.Solver = tc.solver
				if _, err := Optimize(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepareJob times what chanmodd does to every request before
// it looks in the cache: copy the job, canonicalize and check it, and
// hash it. The cases are the shapes of perfbench serve: a popular genscen
// floorplan design (a cache hit), a seeded Test-B flow sweep (an
// asynchronous submission) and a preset.
func BenchmarkPrepareJob(b *testing.B) {
	floorplan, err := genscen.Generate(2)
	if err != nil {
		b.Fatal(err)
	}
	floorplan.Trace, floorplan.Runtime = nil, nil
	floorplan.Solver = "lbfgsb"
	floorplan.EqualPressure = false
	seed := int64(123456789)
	cases := []struct {
		name string
		job  *Job
	}{
		{"genscen-optimize", &Job{Kind: JobOptimize, Scenario: *floorplan}},
		{"testB-flow-sweep", &Job{Kind: JobSweep,
			Scenario: Scenario{Preset: "testB", Seed: &seed, Segments: 1, OuterIterations: 1},
			Sweep:    &SweepJobSpec{Kind: "flow", FlowMLMin: []float64{0.3, 0.4, 0.5}}}},
		{"testA-optimize", &Job{Kind: JobOptimize, Scenario: Scenario{Preset: "testA"}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PrepareJob(c.job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
