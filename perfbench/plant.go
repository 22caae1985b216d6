package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	channelmod "repro"
	"repro/internal/genscen/props"
	"repro/internal/scenario"
)

// The plant workload runs production-scale thermal plants through the
// job engine: transient jobs on the factor-once LU and the reduced-order
// (MOR) engines, and steady thermal maps, on multi-channel stacks whose
// hotspot migrates across the channels. Assembly, banded LU
// factorization, stepping and lifting and the steady solve dominate; the
// optimizer runs only in set-up. Ordering, steady-solver and MOR-input
// changes show here and nowhere else.
var plantWorkload = &workload{
	name:         "plant",
	roundSeconds: 4,
	minRounds:    3,
	owns:         []string{"engine", "batch", "grid", "go", "proc"},
	run:          runPlant,
}

// plantShape is one mesh: channel rows and cells along the flow.
type plantShape struct{ channels, nx int }

// plantShapes is the fixed set of meshes every seed uses, so the work of
// a round does not depend on the seed. nx is a multiple of
// plantFluxSegments so no cell centre falls on a power segment boundary.
var plantShapes = []plantShape{{8, 200}, {10, 180}, {14, 152}, {18, 120}, {22, 100}}

const (
	plantJobsPerScenario = 3 // transient lu, transient mor, steady map
	plantFluxSegments    = 4
	plantPhases          = 4   // E10's count: four distinct power patterns per period
	plantDtMS            = 0.1 // small enough that LU's O(Δt) bias stays far inside the MOR tolerance
	plantSteps           = 120
	// plantTraceSeed draws the transient plants, one stream per mesh. It
	// is fixed rather than the run's seed: whether the MOR engine keeps
	// within its tolerance of LU on a four-pattern trace depends on the
	// pattern (see CHANGES.md), and a plant that breaks it must do so on
	// every run, so that failed operations are the same share of every
	// run. The run's seed draws the steady maps and orders the plants.
	plantTraceSeed = 1
)

// channelLoad draws one channel's 20-40 W/cm² background on
// plantFluxSegments segments per layer.
func channelLoad(rng *rand.Rand) scenario.Channel {
	top := make([]float64, plantFluxSegments)
	bottom := make([]float64, plantFluxSegments)
	for s := range top {
		top[s] = 20 + 20*rng.Float64()
		bottom[s] = 20 + 20*rng.Float64()
	}
	return scenario.Channel{TopWcm2: top, BottomWcm2: bottom}
}

// plantScenario draws one trace-driven scenario on the given mesh: a
// 20-40 W/cm² background and a periodic trace of four 3 ms phases whose
// 150-250 W/cm² hotspot jumps one to three channels between them. A
// plantSteps run covers one period, so the plant sees four distinct
// power patterns, as E10's does.
func plantScenario(rng *rand.Rand, shape plantShape) channelmod.Scenario {
	n := shape.channels
	base := make([]scenario.Channel, n)
	for k := range base {
		base[k] = channelLoad(rng)
	}
	hot := rng.Intn(n)
	var phases []scenario.Phase
	for p := 0; p < plantPhases; p++ {
		chans := make([]scenario.Channel, n)
		for k := range chans {
			chans[k] = channelLoad(rng)
		}
		chans[hot].TopWcm2[rng.Intn(plantFluxSegments)] = 150 + 100*rng.Float64()
		hot = (hot + 1 + rng.Intn(3)) % n
		phases = append(phases, scenario.Phase{DurationMS: 3, Channels: chans})
	}
	horizon := plantDtMS * plantSteps
	return channelmod.Scenario{
		Segments: 2,
		Channels: base,
		Trace:    &scenario.Trace{Periodic: true, Phases: phases},
		Runtime:  &scenario.Runtime{DtMS: plantDtMS, EpochMS: horizon, HorizonMS: horizon, NX: shape.nx},
	}
}

// steadyScenario draws one steady power map on the given mesh: the
// background of plantScenario with one 150-250 W/cm² hotspot.
func steadyScenario(rng *rand.Rand, shape plantShape) channelmod.Scenario {
	chans := make([]scenario.Channel, shape.channels)
	for k := range chans {
		chans[k] = channelLoad(rng)
	}
	chans[rng.Intn(len(chans))].TopWcm2[rng.Intn(plantFluxSegments)] = 150 + 100*rng.Float64()
	return channelmod.Scenario{Segments: 2, Channels: chans}
}

// withEngine returns a copy of s whose plant runs on the given transient
// engine for the given number of steps.
func withEngine(s channelmod.Scenario, engine string, steps int) channelmod.Scenario {
	rt := *s.Runtime
	rt.Engine = engine
	rt.HorizonMS = plantDtMS * float64(steps)
	rt.EpochMS = rt.HorizonMS
	s.Runtime = &rt
	return s
}

// plantPlan is one round of the plant workload.
type plantPlan struct {
	scenarios []channelmod.Scenario // the transient plants
	steady    []channelmod.Scenario // the steady maps' scenarios
	setup     []planJob             // the nested trace-design jobs
	timed     []planJob             // per plant: transient lu, transient mor, steady map
	oneStep   []planJob             // traced only: per plant, 1-step lu and mor transients
}

func buildPlantPlan(seed int64, probe bool) (*plantPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(plantShapes))
	shapes := plantShapes
	if probe {
		order, shapes = []int{0}, []plantShape{{8, 64}}
	}
	plan := &plantPlan{}
	add := func(dst *[]planJob, label string, j *channelmod.Job) error {
		pj, err := newPlanJob(label, j)
		if err != nil {
			return err
		}
		*dst = append(*dst, pj)
		return nil
	}
	for i, m := range order {
		shape := shapes[m]
		s := plantScenario(rand.New(rand.NewSource(plantTraceSeed+int64(m))), shape)
		steady := steadyScenario(rng, shape)
		plan.scenarios = append(plan.scenarios, s)
		plan.steady = append(plan.steady, steady)
		tag := fmt.Sprintf("plant%d-%dx%d", i, shape.nx, shape.channels)

		design := s
		design.Runtime = nil
		if err := add(&plan.setup, "optimize/trace-design/"+tag, &channelmod.Job{
			Kind: channelmod.JobOptimize, Scenario: design,
			Optimize: &channelmod.OptimizeJobSpec{Variant: "trace-design"},
		}); err != nil {
			return nil, err
		}
		for _, eng := range []string{"lu", "mor"} {
			if err := add(&plan.timed, "transient/"+eng+"/"+tag, &channelmod.Job{
				Kind: channelmod.JobTransient, Scenario: withEngine(s, eng, plantSteps),
			}); err != nil {
				return nil, err
			}
		}
		if err := add(&plan.timed, "thermalmap/max/"+tag, &channelmod.Job{
			Kind: channelmod.JobThermalMap, Scenario: steady,
			Map: &channelmod.MapJobSpec{Widths: "max", NX: shape.nx},
		}); err != nil {
			return nil, err
		}
		for _, eng := range []string{"lu", "mor"} {
			if err := add(&plan.oneStep, "transient1/"+eng+"/"+tag, &channelmod.Job{
				Kind: channelmod.JobTransient, Scenario: withEngine(s, eng, 1),
			}); err != nil {
				return nil, err
			}
		}
	}
	return plan, nil
}

// plantRound is one round's engine, jobs and answers.
type plantRound struct {
	index   int
	eng     *channelmod.Engine
	plan    *plantPlan
	timed   []preparedJob
	results []*channelmod.JobResult
	lat     []time.Duration
}

func runPlant(ctx context.Context, cfg runCfg) (*outcome, error) {
	o := &outcome{}
	var work procDelta
	var last *plantRound
	for r := 0; r < cfg.rounds; r++ {
		start := time.Now()
		plan, err := buildPlantPlan(cfg.seed, cfg.probe)
		if err != nil {
			return nil, err
		}
		rd := &plantRound{index: r, eng: channelmod.NewEngine(0), plan: plan}
		setup, err := prepareAll(plan.setup)
		if err != nil {
			return nil, err
		}
		if rd.timed, err = prepareAll(plan.timed); err != nil {
			return nil, err
		}
		for _, j := range setup {
			sp := cfg.tr.start("engine.run", nil, -1)
			_, _, err := rd.eng.RunPrepared(ctx, j.prep)
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("plant set-up %s: %w", j.label, err)
			}
		}
		o.setups = append(o.setups, time.Since(start))

		p0 := readProc()
		start = time.Now()
		rd.results, _, rd.lat = runJobList(ctx, cfg.tr, o, rd.eng, rd.timed, "plant", r)
		o.closedWall += time.Since(start)
		work.add(p0.to(readProc()))
		if r < cfg.rounds-1 {
			checkPlantRound(o, rd)
		}
		last = rd
	}
	if tr := cfg.tr; tr != nil {
		recordProcMetrics(tr, work)
		if err := gridLayers(ctx, tr, last); err != nil {
			return nil, err
		}
		if err := engineLayer(ctx, tr, last.eng, append(last.plan.setup, last.plan.timed...)); err != nil {
			return nil, err
		}
	}
	checkPlantRound(o, last)
	// The program's share of the live heap: the engine and its cache,
	// read with and without them once the client's answers are dropped.
	eng := last.eng
	last = nil
	var err error
	o.retained, err = programHeap(func() error {
		runtime.KeepAlive(eng)
		eng = nil
		return nil
	})
	return o, err
}

// runJobList runs prepared jobs one after another from one client and
// returns their answers, the point events of the streamed ones, and
// their latencies (nil and zero for failed jobs).
func runJobList(ctx context.Context, tr *tracer, o *outcome, eng *channelmod.Engine, jobs []preparedJob, name string, round int) ([]*channelmod.JobResult, [][]channelmod.JobPointEvent, []time.Duration) {
	results := make([]*channelmod.JobResult, len(jobs))
	events := make([][]channelmod.JobPointEvent, len(jobs))
	lat := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		op := round*len(jobs) + i
		root := tr.start("client.job", nil, op)
		start := time.Now()
		var (
			res *channelmod.JobResult
			err error
		)
		if j.stream {
			sp := tr.start("engine.stream", root, op)
			res, _, err = eng.RunStream(ctx, j.job, func(ev channelmod.JobPointEvent) error {
				events[i] = append(events[i], ev)
				return nil
			})
			sp.end()
		} else {
			sp := tr.start("engine.run", root, op)
			res, _, err = eng.RunPrepared(ctx, j.prep)
			sp.end()
		}
		d := time.Since(start)
		root.end()
		o.attempted++
		if err != nil {
			o.fail("%s round %d op %d %s: %v", name, round, i, j.label, err)
			continue
		}
		o.latencies = append(o.latencies, d)
		o.closedOps++
		results[i], lat[i] = res, d
		if o.byLabel == nil {
			o.byLabel = make(map[string][]time.Duration)
		}
		o.byLabel[j.label] = append(o.byLabel[j.label], d)
	}
	return results, events, lat
}

// gridLayers derives the grid layer's figures from differential jobs:
// the steady-map latency and solver iterations, the 1-step transient
// jobs (assembly, factorization or basis construction, one step), and
// the per-step cost as the full job's time minus the 1-step job's over
// the remaining steps.
func gridLayers(ctx context.Context, tr *tracer, rd *plantRound) error {
	oneStep, err := prepareAll(rd.plan.oneStep)
	if err != nil {
		return err
	}
	var steadyMS, iters, setupLU, setupMOR, stepLU, stepMOR, dims []float64
	for i, res := range rd.results {
		if res == nil {
			continue
		}
		if res.Map != nil {
			steadyMS = append(steadyMS, ms(rd.lat[i]))
			iters = append(iters, float64(res.Map.Field.Iterations))
		}
		if res.Transient != nil && res.Transient.ReducedDim > 0 {
			dims = append(dims, float64(res.Transient.ReducedDim))
		}
	}
	// Timed job order per scenario: lu, mor, map; 1-step order: lu, mor.
	for k := range rd.plan.scenarios {
		for e := 0; e < 2; e++ {
			full := rd.lat[plantJobsPerScenario*k+e]
			one := oneStep[2*k+e]
			sp := tr.start("grid.transient1", nil, -1)
			_, _, err := rd.eng.RunPrepared(ctx, one.prep)
			d := sp.end()
			if err != nil {
				return fmt.Errorf("%s: %w", one.label, err)
			}
			step := float64(full-d) / 1e3 / (plantSteps - 1)
			if e == 0 {
				setupLU = append(setupLU, ms(d))
				stepLU = append(stepLU, step)
			} else {
				setupMOR = append(setupMOR, ms(d))
				stepMOR = append(stepMOR, step)
			}
		}
	}
	tr.set("grid.steady_ms", median(steadyMS))
	tr.set("grid.steady_iters", median(iters))
	tr.set("grid.setup_lu_ms", median(setupLU))
	tr.set("grid.setup_mor_ms", median(setupMOR))
	tr.set("grid.step_lu_us", median(stepLU))
	tr.set("grid.step_mor_us", median(stepMOR))
	tr.set("grid.reduced_dim", median(dims))
	return nil
}

// checkPlantRound checks every steady map's energy balance against the
// power the grid samples, and every MOR transient against its LU twin. A
// MOR series outside the tolerance counts its job as a failed operation:
// the job completed and its time counts, but its answer is wrong.
func checkPlantRound(o *outcome, rd *plantRound) {
	tol := props.Default()
	for k, s := range rd.plan.steady {
		base := plantJobsPerScenario * k
		if res := rd.results[base+2]; res != nil {
			if err := checkMapEnthalpy(s, res, tol.EnergyRel); err != nil {
				o.problem("plant round %d op %d %s: energy balance: %v", rd.index, base+2, rd.timed[base+2].label, err)
			}
		}
		lu, mor := rd.results[base], rd.results[base+1]
		if lu == nil || mor == nil {
			continue
		}
		what := fmt.Sprintf("plant round %d op %d %s", rd.index, base+1, rd.timed[base+1].label)
		a, b := &lu.Transient.Series, &mor.Transient.Series
		if len(a.Times) != plantSteps+1 || len(b.Times) != len(a.Times) {
			o.problem("%s: series length: lu %d, mor %d samples, want %d", what, len(a.Times), len(b.Times), plantSteps+1)
			continue
		}
		var errs []string
		for _, ser := range []struct {
			name    string
			lu, mor []float64
		}{{"peak", a.PeakK, b.PeakK}, {"gradient", a.GradientK, b.GradientK}} {
			if err := seriesAgree(ser.lu, ser.mor, tol.TransientEngineRel, 0.05); err != nil {
				errs = append(errs, fmt.Sprintf("MOR vs LU %s series: %v", ser.name, err))
			}
		}
		if len(errs) > 0 {
			o.fail("%s: %s", what, strings.Join(errs, "; "))
		}
	}
}

// seriesAgree checks that mor follows lu within rel of lu's swing plus
// floor kelvin at every sample.
func seriesAgree(lu, mor []float64, rel, floor float64) error {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range lu {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	bound := rel*(hi-lo) + floor
	for i := range lu {
		if d := math.Abs(lu[i] - mor[i]); !(d <= bound) {
			return fmt.Errorf("|lu-mor| = %.4g K at step %d (lu %.6g K, mor %.6g K) exceeds %.4g K for a %.4g K swing", d, i, lu[i], mor[i], bound, hi-lo)
		}
	}
	return nil
}

// checkMapEnthalpy checks a steady map of a channel scenario: the
// coolant's enthalpy rise at the outlet equals the injected power summed
// the way the grid samples it — each layer's power density at the cell
// centre times the cell area. The exact integral of the blocky power map
// would differ from that sum by a fraction of a percent.
func checkMapEnthalpy(s channelmod.Scenario, res *channelmod.JobResult, rel float64) error {
	spec, err := s.Spec()
	if err != nil {
		return err
	}
	p := spec.Params
	f := res.Map.Field
	n := len(s.Channels)
	clusterW := p.Pitch * float64(p.ClusterSize)
	var injected float64
	for j := 0; j < f.NY; j++ {
		y := (float64(j) + 0.5) * f.DY
		ch := min(int(y/clusterW), n-1)
		for i := 0; i < f.NX; i++ {
			x := (float64(i) + 0.5) * f.DX
			for _, wcm2 := range [][]float64{s.Channels[ch].TopWcm2, s.Channels[ch].BottomWcm2} {
				seg := min(int(x/(p.Length/float64(len(wcm2)))), len(wcm2)-1)
				injected += wcm2[seg] * 1e4 * f.DX * f.DY
			}
		}
	}
	cvV := p.Coolant.VolumetricHeatCapacity() * p.FlowRatePerChannel * f.DY / p.Pitch
	var absorbed float64
	for j := 0; j < f.NY; j++ {
		absorbed += cvV * (f.Coolant[j][f.NX-1] - p.InletTemp)
	}
	return balance(absorbed, injected, rel)
}
