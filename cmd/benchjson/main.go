// Command benchjson measures the performance trajectory of the adjoint
// gradient path and writes it as a machine-readable JSON snapshot
// (BENCH_optimize.json at the repo root is the committed full run).
//
// Four measurement groups, each FD-vs-adjoint where the mode applies:
//
//   - solve: one warm-evaluator model solve of the K-segment design
//   - gradient: the K-segment gradient — the FD inner loop (K+1 solves)
//     vs one forward solve plus one adjoint pass
//   - optimize: the full Test-A modulation optimization end to end, at
//     the tight 2-bar pressure budget of the sweep ablation's hard
//     points, where the active constraint keeps the multiplier loop —
//     and with it the gradient path — busy
//   - sweep_point: the same tight-budget point routed through the job
//     engine (canonicalization, content addressing and solve included)
//
// Usage:
//
//	benchjson [-out BENCH_optimize.json] [-smoke]
//	benchjson -transient [-out BENCH_transient.json] [-smoke]
//	benchjson -daemon [-out BENCH_daemon.json] [-smoke]
//
// -smoke shrinks the problem (8 segments, truncated outer loop, fewer
// repetitions) so CI can exercise the same code path in seconds; the
// committed snapshot is the full-size run (20 segments).
//
// -transient switches to the transient-engine mesh-scaling sweep and
// E10-style closed-loop measurement documented in transient.go
// (BENCH_transient.json is the committed full run; -smoke caps the
// sweep at 96×24 so CI exercises the scaling curve in seconds).
//
// -daemon switches to the serving-layer load benchmark documented in
// daemon.go: a deterministic internal/loadgen mixed-traffic plan
// driven against a real chanmodd server, plus a deliberate overload
// burst that must shed with 429 (BENCH_daemon.json is the committed
// full run; -smoke shrinks the plan so CI can run it under -race).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	channelmod "repro"
	"repro/internal/cliutil"
	"repro/internal/compact"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/microchannel"
	"repro/internal/units"
)

// Bench is one measured operation.
type Bench struct {
	Name    string  `json:"name"`
	Reps    int     `json:"reps"`
	MsPerOp float64 `json:"ms_per_op"`
	// ModelSolves counts the compact-model solves one operation spends
	// (the currency the adjoint saves), where the operation tracks it.
	ModelSolves int `json:"model_solves,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Generated  string  `json:"generated"`
	GoVersion  string  `json:"go_version"`
	Smoke      bool    `json:"smoke,omitempty"`
	Segments   int     `json:"segments"`
	Benchmarks []Bench `json:"benchmarks"`
	// Speedups are FD-time / adjoint-time ratios per group.
	Speedups map[string]float64 `json:"speedups"`
}

func main() { cliutil.Main(run) }

func run() error {
	out := flag.String("out", "", "output path for the JSON snapshot (default BENCH_optimize.json, BENCH_transient.json with -transient, or BENCH_daemon.json with -daemon)")
	smoke := flag.Bool("smoke", false, "shrunken problem and repetitions for CI")
	transient := flag.Bool("transient", false, "measure the transient engines' mesh-size scaling instead of the gradient path")
	daemonBench := flag.Bool("daemon", false, "measure the chanmodd serving layer under deterministic mixed load instead of the gradient path")
	flag.Parse()
	if *transient {
		if *out == "" {
			*out = "BENCH_transient.json"
		}
		return runTransient(*out, *smoke)
	}
	if *daemonBench {
		if *out == "" {
			*out = "BENCH_daemon.json"
		}
		return runDaemonBench(*out, *smoke)
	}
	if *out == "" {
		*out = "BENCH_optimize.json"
	}

	// The tight 2-bar budget is the pressure-sweep ablation's hard-point
	// configuration (cmd/sweep uses outer=10 there for the same reason:
	// the active constraint needs the multiplier updates).
	segs, outer, reps, budgetBar := 20, 10, 2, 2.0
	if *smoke {
		segs, outer, reps = 8, 3, 1
	}
	rep := Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Smoke:     *smoke,
		Segments:  segs,
		Speedups:  map[string]float64{},
	}

	p := compact.DefaultParams()
	ch, err := benchChannel(p, segs)
	if err != nil {
		return err
	}
	ev := compact.NewEvaluator(p)

	// The kernel groups (solve, gradient) are sub-millisecond: time them
	// warm with enough repetitions that best-of-N means something. The
	// first untimed call of each populates the evaluator memos, matching
	// the warm-session regime the optimizer runs in.
	kernelReps := reps * 10

	// solve: one warm model solve.
	tSolve, err := timeIt(kernelReps, func() error {
		_, err := ev.SolveEliminated(ch)
		return err
	})
	if err != nil {
		return err
	}
	rep.Benchmarks = append(rep.Benchmarks, Bench{Name: "solve", Reps: kernelReps, MsPerOp: ms(tSolve), ModelSolves: 1})

	// gradient: FD inner loop vs adjoint, same warm evaluator.
	if err := fdGradient(ev, ch, segs); err != nil { // warm-up
		return err
	}
	tGradFD, err := timeIt(kernelReps, func() error { return fdGradient(ev, ch, segs) })
	if err != nil {
		return err
	}
	rep.Benchmarks = append(rep.Benchmarks, Bench{Name: "gradient_fd", Reps: kernelReps, MsPerOp: ms(tGradFD), ModelSolves: segs + 1})

	params := make([]compact.GradParam, segs)
	for s := range params {
		params[s] = compact.GradParam{Kind: compact.GradWidth, Segment: s}
	}
	grad := make([]float64, segs)
	if _, err := ev.SolveGradient([]compact.Channel{ch}, params, grad); err != nil { // warm-up
		return err
	}
	tGradAdj, err := timeIt(kernelReps, func() error {
		_, err := ev.SolveGradient([]compact.Channel{ch}, params, grad)
		return err
	})
	if err != nil {
		return err
	}
	rep.Benchmarks = append(rep.Benchmarks, Bench{Name: "gradient_adjoint", Reps: kernelReps, MsPerOp: ms(tGradAdj), ModelSolves: 1})
	rep.Speedups["gradient"] = ratio(tGradFD, tGradAdj)

	// optimize: the full Test-A modulation problem end to end at the
	// tight budget.
	optReps := reps + 1
	optimize := func(mode control.Gradient) (time.Duration, int, error) {
		var solves int
		d, err := timeIt(optReps, func() error {
			spec, err := core.TestASpec()
			if err != nil {
				return err
			}
			spec.Segments = segs
			spec.OuterIterations = outer
			spec.MaxPressure = units.Bar(budgetBar)
			spec.Gradient = mode
			res, err := control.Optimize(spec)
			if err != nil {
				return err
			}
			solves = res.Stats.ModelSolves
			return nil
		})
		return d, solves, err
	}
	tOptFD, solvesFD, err := optimize(control.GradientFD)
	if err != nil {
		return err
	}
	tOptAdj, solvesAdj, err := optimize(control.GradientAdjoint)
	if err != nil {
		return err
	}
	rep.Benchmarks = append(rep.Benchmarks,
		Bench{Name: "optimize_fd", Reps: optReps, MsPerOp: ms(tOptFD), ModelSolves: solvesFD},
		Bench{Name: "optimize_adjoint", Reps: optReps, MsPerOp: ms(tOptAdj), ModelSolves: solvesAdj})
	rep.Speedups["optimize"] = ratio(tOptFD, tOptAdj)

	// sweep_point: one pressure point through the job engine, cold cache
	// (a fresh engine per run keeps the content-addressed cache out of
	// the measurement).
	sweepPoint := func(gradient string) (time.Duration, error) {
		return timeIt(1, func() error {
			job := &channelmod.Job{
				Kind: channelmod.JobSweep,
				Scenario: channelmod.Scenario{
					Name:            "bench-sweep",
					Preset:          "testA",
					Segments:        segs,
					OuterIterations: outer,
					Gradient:        gradient,
				},
				Sweep: &channelmod.SweepJobSpec{Kind: "pressure", PressureBars: []float64{budgetBar}},
			}
			_, err := channelmod.NewEngine(0).Run(context.Background(), job)
			return err
		})
	}
	tSweepFD, err := sweepPoint("fd")
	if err != nil {
		return err
	}
	tSweepAdj, err := sweepPoint("adjoint")
	if err != nil {
		return err
	}
	rep.Benchmarks = append(rep.Benchmarks,
		Bench{Name: "sweep_point_fd", Reps: 1, MsPerOp: ms(tSweepFD)},
		Bench{Name: "sweep_point_adjoint", Reps: 1, MsPerOp: ms(tSweepAdj)})
	rep.Speedups["sweep_point"] = ratio(tSweepFD, tSweepAdj)

	fh, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer fh.Close()
	enc := json.NewEncoder(fh)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s (segments=%d): gradient %.1fx, optimize %.1fx, sweep point %.1fx adjoint speedup\n",
		*out, segs, rep.Speedups["gradient"], rep.Speedups["optimize"], rep.Speedups["sweep_point"])
	return nil
}

// benchChannel is the K-segment design the kernel benchmarks share with
// internal/compact: a linear 45→20 µm taper under a uniform 120 W/cm²
// load.
func benchChannel(p compact.Params, segs int) (compact.Channel, error) {
	prof, err := microchannel.NewLinear(45e-6, 20e-6, p.Length, segs)
	if err != nil {
		return compact.Channel{}, err
	}
	ft, err := compact.NewUniformFlux(units.WattsPerCm2(120)*p.ClusterWidth(), p.Length)
	if err != nil {
		return compact.Channel{}, err
	}
	return compact.Channel{Width: prof, FluxTop: ft, FluxBottom: ft}, nil
}

// fdGradient is the finite-difference inner loop the adjoint replaces:
// K+1 warm solves per gradient.
func fdGradient(ev *compact.Evaluator, base compact.Channel, segs int) error {
	r0, err := ev.SolveEliminated(base)
	if err != nil {
		return err
	}
	j0 := r0.ObjectiveQ2()
	for s := 0; s < segs; s++ {
		prof := base.Width.Clone()
		prof.SetWidth(s, prof.Width(s)+1e-8)
		r, err := ev.SolveEliminated(compact.Channel{Width: prof, FluxTop: base.FluxTop, FluxBottom: base.FluxBottom})
		if err != nil {
			return err
		}
		_ = (r.ObjectiveQ2() - j0) / 1e-8
	}
	return nil
}

// timeIt runs f reps times and returns the fastest duration (the usual
// best-of-N guard against scheduler noise).
func timeIt(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
