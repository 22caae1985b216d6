package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	channelmod "repro"
	"repro/internal/genscen"
	"repro/internal/genscen/props"
	"repro/internal/scenario"
)

// The design workload is a design session through the job engine with
// its default cache: the paper's design-time exploration (Figs. 4-9)
// plus one reduced E10 runtime experiment. The optimizer, the compact
// evaluator and the batch pool do nearly all the work; grid and HTTP
// almost none. E10 is here because its controller spends its CPU in
// cold compact solves (the multiple-shooting LU in bvp and mat.Expm)
// that no other job stresses.
var designWorkload = &workload{
	name:         "design",
	roundSeconds: 12,
	minRounds:    4,
	owns:         []string{"engine", "batch", "control", "compact", "go", "proc"},
	run:          runDesign,
}

// e10Scenario is the E10 experiment as data: four channels at a
// 40 W/cm² base and a periodic trace whose 160 W/cm² hotspot visits
// each channel for 15 ms, simulated for horizonMS of plant time in 5 ms
// controller epochs.
func e10Scenario(horizonMS float64) channelmod.Scenario {
	const nChannels = 4
	uniform := func(wcm2 float64) scenario.Channel {
		return scenario.Channel{TopWcm2: []float64{wcm2}, BottomWcm2: []float64{wcm2}}
	}
	base := make([]scenario.Channel, nChannels)
	for k := range base {
		base[k] = uniform(40)
	}
	var phases []scenario.Phase
	for hot := 0; hot < nChannels; hot++ {
		chans := make([]scenario.Channel, nChannels)
		for k := range chans {
			wcm2 := 40.0
			if k == hot {
				wcm2 = 160
			}
			chans[k] = uniform(wcm2)
		}
		phases = append(phases, scenario.Phase{DurationMS: 15, Channels: chans})
	}
	return channelmod.Scenario{
		Name:            "e10-migrating-hotspot",
		Segments:        8,
		OuterIterations: 3,
		Channels:        base,
		Trace:           &scenario.Trace{Periodic: true, Phases: phases},
		Runtime:         &scenario.Runtime{DtMS: 1, EpochMS: 5, NX: 40, HorizonMS: horizonMS},
	}
}

// designGenscen draws the seeded floorplan scenarios of a design plan.
// They are trimmed to two control segments and the L-BFGS-B solver, so
// their compare jobs stay the cheapest class of the plan whatever the
// seed and the median job stays a fixed one.
func designGenscen(seed int64, n int) ([]channelmod.Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]channelmod.Scenario, n)
	for i := range out {
		f, err := genscen.Generate(rng.Int63n(1 << 40))
		if err != nil {
			return nil, err
		}
		f.Trace, f.Runtime = nil, nil
		f.Segments = 2
		f.OuterIterations = 0
		f.Solver = "lbfgsb"
		f.EqualPressure = false
		out[i] = *f
	}
	return out, nil
}

// designPlan is one round of the design workload.
type designPlan struct {
	// setup holds the nominal designs the exploration reuses: the
	// presets' optimize jobs and the E10 trace design.
	setup []planJob
	// timed is the one-client job list.
	timed []planJob
	// gen are the seeded genscen scenarios (for the gradient check).
	gen []channelmod.Scenario
}

func buildDesignPlan(seed int64, probe bool) (*designPlan, error) {
	preset := func(name string) channelmod.Scenario { return channelmod.Scenario{Preset: name} }
	optimize := func(s channelmod.Scenario, v *channelmod.OptimizeJobSpec) *channelmod.Job {
		return &channelmod.Job{Kind: channelmod.JobOptimize, Scenario: s, Optimize: v}
	}
	compare := func(s channelmod.Scenario) *channelmod.Job {
		return &channelmod.Job{Kind: channelmod.JobCompare, Scenario: s}
	}
	sweep := func(s channelmod.Scenario, sw *channelmod.SweepJobSpec) *channelmod.Job {
		return &channelmod.Job{Kind: channelmod.JobSweep, Scenario: s, Sweep: sw}
	}
	optimalMap := func(s channelmod.Scenario) *channelmod.Job {
		return &channelmod.Job{Kind: channelmod.JobThermalMap, Scenario: s, Map: &channelmod.MapJobSpec{Widths: "optimal"}}
	}
	runtimeJob := func(horizonMS float64) *channelmod.Job {
		return &channelmod.Job{Kind: channelmod.JobRuntime, Scenario: e10Scenario(horizonMS)}
	}
	traceDesign := func() *channelmod.Job {
		s := e10Scenario(0)
		s.Runtime = nil
		return optimize(s, &channelmod.OptimizeJobSpec{Variant: "trace-design"})
	}

	type entry struct {
		label string
		job   *channelmod.Job
	}
	var setup, timed []entry
	nGen := 2
	if probe {
		// One cheap design pass: enough to read the optimizer's and the
		// evaluator's counters and one E10 epoch.
		nGen = 1
		setup = []entry{
			{"optimize/testA", optimize(preset("testA"), nil)},
			{"optimize/e10-trace-design", traceDesign()},
		}
		timed = []entry{
			{"compare/testA", compare(preset("testA"))},
			{"compare/testB", compare(preset("testB"))},
			{"sweep/pressure/testA", sweep(preset("testA"), &channelmod.SweepJobSpec{Kind: "pressure", PressureBars: []float64{5, 10}})},
			{"runtime/e10", runtimeJob(5)},
		}
	} else {
		// The sizes of the jobs are chosen, not their order: seven jobs,
		// the seeded genscen compares among them, stay below 0.4 s and
		// eight above it. With four rounds the median is the second
		// fastest instance of the two cheapest of those eight (the Test-B
		// segments sweep and the Test-B draw's compare, both about 0.55 s)
		// and p75 the fastest instance of the Arch 3 compare, so the
		// seeded jobs never decide which job sits at a reported rank.
		for _, p := range []string{"testA", "testB", "arch3"} {
			setup = append(setup, entry{"optimize/" + p, optimize(preset(p), nil)})
		}
		setup = append(setup, entry{"optimize/e10-trace-design", traceDesign()})
		for _, p := range []string{"testA", "testB", "arch1", "arch2", "arch3"} {
			timed = append(timed, entry{"compare/" + p, compare(preset(p))})
		}
		seed1 := int64(1)
		timed = append(timed,
			entry{"compare/testB-seed1", compare(channelmod.Scenario{Preset: "testB", Seed: &seed1})},
			entry{"sweep/segments/testB", sweep(preset("testB"), &channelmod.SweepJobSpec{Kind: "segments", Segments: []int{5, 10, 20, 30, 40, 60}})},
			entry{"sweep/pressure/testB", sweep(preset("testB"), &channelmod.SweepJobSpec{Kind: "pressure", PressureBars: []float64{2, 3, 4, 6, 10, 15, 20}})},
			entry{"sweep/flow/testA", sweep(preset("testA"), &channelmod.SweepJobSpec{Kind: "flow"})},
			entry{"optimize/flow-allocation/testB", optimize(preset("testB"), &channelmod.OptimizeJobSpec{Variant: "flow-allocation"})},
			entry{"optimize/min-pumping/testA", optimize(preset("testA"), &channelmod.OptimizeJobSpec{Variant: "min-pumping", MaxGradientK: 22})},
			entry{"thermalmap/optimal/arch3", optimalMap(preset("arch3"))},
			entry{"runtime/e10", runtimeJob(10)},
		)
	}
	gen, err := designGenscen(seed, nGen)
	if err != nil {
		return nil, err
	}
	for i, s := range gen {
		timed = append(timed, entry{fmt.Sprintf("compare/genscen%d", i), compare(s)})
	}

	plan := &designPlan{gen: gen}
	for _, e := range setup {
		pj, err := newPlanJob(e.label, e.job)
		if err != nil {
			return nil, err
		}
		plan.setup = append(plan.setup, pj)
	}
	for _, e := range timed {
		pj, err := newPlanJob(e.label, e.job)
		if err != nil {
			return nil, err
		}
		plan.timed = append(plan.timed, pj)
	}
	return plan, nil
}

// designRound is one round's engine, jobs and answers.
type designRound struct {
	index   int
	eng     *channelmod.Engine
	plan    *designPlan
	setup   []preparedJob
	timed   []preparedJob
	setupRs []*channelmod.JobResult
	results []*channelmod.JobResult
	events  [][]channelmod.JobPointEvent
	lat     []time.Duration
}

func runDesign(ctx context.Context, cfg runCfg) (*outcome, error) {
	o := &outcome{}
	var work procDelta
	var last *designRound
	for r := 0; r < cfg.rounds; r++ {
		rd, err := designSetup(ctx, cfg, o, r)
		if err != nil {
			return nil, err
		}
		p0 := readProc()
		start := time.Now()
		rd.results, rd.events, rd.lat = runJobList(ctx, cfg.tr, o, rd.eng, rd.timed, "design", r)
		o.closedWall += time.Since(start)
		work.add(p0.to(readProc()))
		if r < cfg.rounds-1 {
			checkDesignRound(o, rd)
		}
		last = rd
	}
	if tr := cfg.tr; tr != nil {
		recordProcMetrics(tr, work)
		designLayers(tr, last)
		if err := compactLayer(tr); err != nil {
			return nil, err
		}
		if err := engineLayer(ctx, tr, last.eng, append(last.plan.setup, last.plan.timed...)); err != nil {
			return nil, err
		}
	}
	checkDesignRound(o, last)
	tol := props.Default()
	for i := range last.plan.gen {
		if err := props.GradientAgreement(&last.plan.gen[i], tol); err != nil {
			o.problem("design genscen%d: adjoint gradient agreement: %v", i, err)
		}
	}
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

// designSetup builds a fresh engine, generates and prepares the round's
// jobs from the seed, and solves the nominal designs.
func designSetup(ctx context.Context, cfg runCfg, o *outcome, r int) (*designRound, error) {
	start := time.Now()
	plan, err := buildDesignPlan(cfg.seed, cfg.probe)
	if err != nil {
		return nil, err
	}
	rd := &designRound{index: r, eng: channelmod.NewEngine(0), plan: plan}
	if rd.setup, err = prepareAll(plan.setup); err != nil {
		return nil, err
	}
	if rd.timed, err = prepareAll(plan.timed); err != nil {
		return nil, err
	}
	for _, j := range rd.setup {
		sp := cfg.tr.start("engine.run", nil, -1)
		res, _, err := rd.eng.RunPrepared(ctx, j.prep)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("design set-up %s: %w", j.label, err)
		}
		rd.setupRs = append(rd.setupRs, res)
	}
	o.setups = append(o.setups, time.Since(start))
	return rd, nil
}

// designLayers records the optimizer's and the evaluator's counters over
// the last round's answers, and the E10 wall time per epoch.
func designLayers(tr *tracer, rd *designRound) {
	var solves, grads, inner, outer int
	var memoHit, memoMiss, derivHit, derivMiss uint64
	seen := make(map[*channelmod.Result]bool)
	add := func(r *channelmod.Result) {
		if r == nil || seen[r] {
			return
		}
		seen[r] = true
		s := r.Stats
		solves += s.ModelSolves
		grads += s.GradientEvaluations
		inner += s.InnerIterations
		outer += s.OuterIterations
		memoHit += s.TransitionHits
		memoMiss += s.TransitionMisses
		derivHit += s.DerivHits
		derivMiss += s.DerivMisses
	}
	for i, res := range rd.results {
		if res == nil {
			continue
		}
		switch {
		case res.Compare != nil:
			add(res.Compare.MinWidth)
			add(res.Compare.MaxWidth)
			add(res.Compare.Optimal)
		case res.Optimize != nil:
			add(res.Optimize)
		case res.Sweep != nil:
			for _, p := range res.Sweep.Points {
				add(p.Result)
			}
		case res.Runtime != nil:
			if n := len(res.Runtime.Result.Epochs); n > 0 {
				tr.set("control.epoch_ms", ms(rd.lat[i])/float64(n))
			}
		}
	}
	tr.set("control.model_solves", float64(solves))
	tr.set("control.gradient_evals", float64(grads))
	tr.set("control.inner_iters", float64(inner))
	tr.set("control.outer_iters", float64(outer))
	if n := memoHit + memoMiss; n > 0 {
		tr.set("compact.memo_hit_ratio", float64(memoHit)/float64(n))
	}
	if n := derivHit + derivMiss; n > 0 {
		tr.set("compact.deriv_hit_ratio", float64(derivHit)/float64(n))
	}
}

// compactLayer times the root package's Optimize on the Test A and
// Test B specs and divides by the model solves it reports.
func compactLayer(tr *tracer) error {
	a, err := channelmod.TestA()
	if err != nil {
		return err
	}
	b, err := channelmod.TestB(channelmod.DefaultTestB())
	if err != nil {
		return err
	}
	var total time.Duration
	solves := 0
	for _, spec := range []*channelmod.Spec{a, b} {
		sp := tr.start("compact.optimize", nil, -1)
		res, err := channelmod.Optimize(spec)
		total += sp.end()
		if err != nil {
			return fmt.Errorf("compact layer: %w", err)
		}
		solves += res.Stats.ModelSolves
	}
	if solves > 0 {
		tr.set("compact.ms_per_solve", ms(total)/float64(solves))
	}
	return nil
}

// checkDesignRound checks every answer of a round against independent
// computations and properties the method must have.
func checkDesignRound(o *outcome, rd *designRound) {
	tol := props.Default()
	designs := make(map[string]*channelmod.Result) // preset → setup optimum
	for i, j := range rd.setup {
		if j.job.Kind == channelmod.JobOptimize && j.job.Optimize == nil {
			designs[j.job.Scenario.Preset] = rd.setupRs[i].Optimize
		}
	}
	for i, j := range rd.timed {
		res := rd.results[i]
		if res == nil {
			continue
		}
		what := fmt.Sprintf("design round %d op %d %s", rd.index, i, j.label)
		if res.Hash != j.prep.Hash {
			o.problem("%s: answer address %.12s is not the job's %.12s", what, res.Hash, j.prep.Hash)
		}
		// The canonical scenario carries the resolved defaults (the 10 bar
		// budget among them) the engine solved with.
		spec, err := j.prep.Job.Scenario.Spec()
		if err != nil && j.job.Kind != channelmod.JobRuntime {
			o.problem("%s: scenario: %v", what, err)
			continue
		}
		switch j.job.Kind {
		case channelmod.JobCompare:
			cmp := res.Compare
			for _, d := range []struct {
				name string
				r    *channelmod.Result
			}{{"min-width", cmp.MinWidth}, {"max-width", cmp.MaxWidth}, {"optimal", cmp.Optimal}} {
				if err := checkEnthalpy(spec, d.r, tol.EnergyRel); err != nil {
					o.problem("%s: %s design: energy balance: %v", what, d.name, err)
				}
			}
			if err := props.OptimalityFromComparison(spec, cmp, tol); err != nil {
				o.problem("%s: optimality: %v", what, err)
			}
		case channelmod.JobSweep:
			checkSweep(o, what, j, res, rd.events[i], tol)
		case channelmod.JobOptimize:
			opt := j.prep.Job.Optimize
			switch opt.Variant {
			case "flow-allocation":
				lo, hi := opt.FlowScaleRange[0], opt.FlowScaleRange[1]
				for k, s := range res.FlowScales {
					if s < lo || s > hi {
						o.problem("%s: valve range: channel %d flow scale %g outside [%g, %g]", what, k, s, lo, hi)
					}
				}
			case "min-pumping":
				if g := res.Optimize.GradientK; g > opt.MaxGradientK*(1+tol.FeasibilityRel) {
					o.problem("%s: gradient cap: ΔT %.6g K above the %.6g K cap", what, g, opt.MaxGradientK)
				}
			}
		case channelmod.JobThermalMap:
			want := designs[j.job.Scenario.Preset]
			if want == nil || !sameProfiles(res.Map.Profiles, want.Profiles) {
				o.problem("%s: map widths: profiles differ from the %s optimize job's design", what, j.job.Scenario.Preset)
			}
			if lo, hi := res.Map.Field.SiliconExtrema(); !(lo >= spec.Params.InletTemp-1e-9) || math.IsInf(hi, 0) || math.IsNaN(hi) {
				o.problem("%s: map field: silicon range [%g, %g] K below the %g K inlet or not finite", what, lo, hi, spec.Params.InletTemp)
			}
		case channelmod.JobRuntime:
			checkEpochs(o, what, j, res)
		}
	}
}

// checkSweep checks that every point's address is that of the same
// point submitted as a standalone optimize job, that the optimized
// points respect their pressure budget, and that the streamed points
// arrived in order carrying the points' addresses.
func checkSweep(o *outcome, what string, j preparedJob, res *channelmod.JobResult, events []channelmod.JobPointEvent, tol props.Tolerances) {
	canon := j.prep.Job
	pts := res.Sweep.Points
	if len(events) != len(pts) {
		o.problem("%s: stream: %d point events for %d points", what, len(events), len(pts))
	}
	for k, p := range pts {
		sub := channelmod.Job{Kind: channelmod.JobOptimize, Scenario: canon.Scenario}
		budget := canon.Scenario.MaxPressureBar
		switch canon.Sweep.Kind {
		case "pressure":
			sub.Scenario.MaxPressureBar = p.PressureBar
			budget = p.PressureBar
		case "segments":
			sub.Scenario.Segments = p.Segments
		case "flow":
			sub.Scenario.Params.FlowRateMLMin = p.FlowMLMin
			sub.Optimize = &channelmod.OptimizeJobSpec{Variant: "baseline"}
			budget = 0 // an evaluated uniform design has no budget
		}
		sp, err := channelmod.PrepareJob(&sub)
		if err != nil {
			o.problem("%s: point %d: standalone job: %v", what, k, err)
			continue
		}
		if sp.Hash != p.Hash {
			o.problem("%s: point %d: address %.12s differs from the standalone optimize job's %.12s", what, k, p.Hash, sp.Hash)
		}
		if budget > 0 {
			if dp := p.Result.MaxPressureDrop() / 1e5; dp > budget*(1+tol.FeasibilityRel) {
				o.problem("%s: point %d: ΔP %.6g bar above its %.6g bar budget", what, k, dp, budget)
			}
		}
		if k < len(events) && (events[k].Index != k || events[k].Info.Hash != p.Hash) {
			o.problem("%s: stream: event %d is point %d at %.12s, want point %d at %.12s", what, k, events[k].Index, events[k].Info.Hash, k, p.Hash)
		}
	}
}

// checkEpochs checks that every controller decision keeps each flow
// scale inside the valve range and conserves the total flow.
func checkEpochs(o *outcome, what string, j preparedJob, res *channelmod.JobResult) {
	lo, hi := 0.5, 2.0
	if rt := j.prep.Job.Scenario.Runtime; rt != nil && rt.FlowScaleRange != [2]float64{} {
		lo, hi = rt.FlowScaleRange[0], rt.FlowScaleRange[1]
	}
	epochs := res.Runtime.Result.Epochs
	if len(epochs) == 0 {
		o.problem("%s: runtime: no controller epochs", what)
	}
	for e, d := range epochs {
		var sum float64
		for k, s := range d.FlowScales {
			sum += s
			if s < lo || s > hi {
				o.problem("%s: epoch %d: channel %d flow scale %g outside the valve range [%g, %g]", what, e, k, s, lo, hi)
			}
		}
		if mean := sum / float64(len(d.FlowScales)); math.Abs(mean-1) > 1e-9 {
			o.problem("%s: epoch %d: mean flow scale %.12g, total flow not conserved", what, e, mean)
		}
	}
}

func sameProfiles(a, b []*channelmod.Profile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		wa, wb := a[i].Widths(), b[i].Widths()
		if len(wa) != len(wb) {
			return false
		}
		for k := range wa {
			if wa[k] != wb[k] {
				return false
			}
		}
	}
	return true
}
