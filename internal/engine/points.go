package engine

import (
	"context"
	"fmt"

	"repro/internal/batch"
	"repro/internal/control"
)

// points.go — per-point sub-job decomposition.
//
// Composite job kinds are families of independent points: a compare is
// three optimize jobs (the two uniform-width baselines and the
// modulation optimum), a sweep is one optimize job per coordinate, the
// arch-experiment grid is one compare job per architecture × mode
// combo, and the thermalmap/transient/runtime kinds resolve a nested
// design optimization. Instead of hashing and caching the family as one
// monolithic entry, the engine decomposes it: every point is itself a
// canonical Job with its own content address, executed through the same
// Run pipeline (cache + singleflight included), and the parent result is
// a cheap reduction over the per-point results. Two overlapping sweeps
// therefore re-solve only the points they do not share, and a sweep
// point is cache-shared with a direct submission of the equivalent
// optimize/compare job.

// subJobs returns the canonical job's per-point sub-jobs in point order,
// or nil when the kind is not decomposable (plain optimize, uniform-width
// maps and transients). The constructors mirror the executors exactly:
// running subJobs[i] computes precisely what point i of the parent
// computes.
func subJobs(canon *Job) []*Job {
	switch canon.Kind {
	case KindCompare:
		// Canonicalization materializes the width bounds, so the
		// min-width baseline names its width; zero width_um resolves to
		// the upper bound.
		return []*Job{
			baselineJob(canon, canon.Scenario.BoundsUM[0]),
			baselineJob(canon, 0),
			designJob(canon),
		}
	case KindSweep:
		s := canon.Sweep
		n := s.pointCount()
		out := make([]*Job, n)
		for i := 0; i < n; i++ {
			out[i] = sweepPointJob(canon, i)
		}
		return out
	case KindArchExperiment:
		var out []*Job
		for _, a := range canon.Experiment.Archs {
			for _, m := range canon.Experiment.Modes {
				out = append(out, archCaseJob(canon, a, m))
			}
		}
		return out
	case KindThermalMap:
		if canon.Map.Widths == WidthsOptimal {
			return []*Job{designJob(canon)}
		}
	case KindTransient:
		if canon.Transient.WidthUM == 0 {
			return []*Job{traceDesignJob(canon)}
		}
	case KindRuntime:
		return []*Job{traceDesignJob(canon)}
	}
	return nil
}

// pointCount returns the number of points of a canonical sweep spec
// (the explicit lists are materialized by canonicalization).
func (s *SweepSpec) pointCount() int {
	switch s.Kind {
	case SweepPressure:
		return len(s.PressureBars)
	case SweepSegments:
		return len(s.Segments)
	case SweepFlow:
		return len(s.FlowMLMin)
	}
	return 0
}

// sweepPointJob builds point i of a canonical sweep as a standalone
// optimize job: the swept coordinate overrides the matching scenario
// knob (which parent canonicalization pinned as inert), so the sub-job's
// content address depends only on the point — not on which sweep asked
// for it.
func sweepPointJob(canon *Job, i int) *Job {
	s := canon.Sweep
	sub := &Job{Kind: KindOptimize, Scenario: canon.Scenario}
	switch s.Kind {
	case SweepPressure:
		sub.Scenario.MaxPressureBar = s.PressureBars[i]
	case SweepSegments:
		sub.Scenario.Segments = s.Segments[i]
	case SweepFlow:
		// The flow sweep evaluates the uniform max-width baseline at each
		// flow rate (zero width_um resolves to the scenario's upper bound).
		sub.Scenario.Params.FlowRateMLMin = s.FlowMLMin[i]
		sub.Optimize = &OptimizeSpec{Variant: VariantBaseline}
	}
	return sub
}

// archCaseJob builds one architecture × power-mode combo of the Fig. 8
// grid as a standalone compare job over the matching arch preset.
func archCaseJob(canon *Job, arch int, mode string) *Job {
	sub := &Job{Kind: KindCompare, Scenario: canon.Scenario}
	sub.Scenario.Preset = fmt.Sprintf("arch%d", arch)
	sub.Scenario.Mode = mode
	return sub
}

// baselineJob builds a compare's uniform-width baseline at widthUM (zero
// → the upper bound) as a standalone optimize job.
func baselineJob(canon *Job, widthUM float64) *Job {
	return &Job{
		Kind:     KindOptimize,
		Scenario: canon.Scenario,
		Optimize: &OptimizeSpec{Variant: VariantBaseline, WidthUM: widthUM},
	}
}

// designJob builds the modulation optimum a compare reduces and a
// widths:"optimal" thermal map resolves its design through.
func designJob(canon *Job) *Job {
	return &Job{Kind: KindOptimize, Scenario: canon.Scenario}
}

// traceDesignJob builds the nested trace-design optimize job transient
// and runtime jobs resolve their static design through. The controller
// timing does not shape the design; dropping it keeps the sub-job's
// address shared across plant configurations (e.g. the two E10
// valve-authority ranges solve the design once).
func traceDesignJob(canon *Job) *Job {
	sub := &Job{
		Kind:     KindOptimize,
		Scenario: canon.Scenario,
		Optimize: &OptimizeSpec{Variant: VariantTraceDesign},
	}
	sub.Scenario.Runtime = nil
	return sub
}

// PointEvent describes the completion of one per-point sub-job of a
// composite job, delivered in point order by Engine.RunStream. Exactly
// one of the payload fields (Sweep, Case, Design) is set, matching the
// parent kind.
type PointEvent struct {
	// Index is the point's 0-based position in the parent's point order.
	Index int
	// Total is the parent's point count.
	Total int
	// Info is the sub-job's provenance: its content address and whether
	// it was served from the cache, coalesced onto an in-flight run, or
	// computed.
	Info Info
	// Sweep is the evaluated point of a sweep parent.
	Sweep *SweepPoint
	// Case is the evaluated combo of an arch-experiment parent.
	Case *ExperimentCase
	// Design is the resolved design optimization of a thermalmap
	// (widths "optimal"), transient or runtime parent, or one of a
	// compare parent's three designs: the min-width baseline, the
	// max-width baseline and the modulation optimum, in that order. On a
	// replayed stream it is nil when the sub-result has been evicted from
	// the cache (the event still carries the sub-job's address).
	Design *control.Result
}

// sink delivers PointEvents to a streaming caller. A nil sink (or a nil
// emit function) discards events, so executors emit unconditionally.
type sink struct {
	emit func(PointEvent) error
}

// point forwards one event; a non-nil error aborts the execution.
func (s *sink) point(ev PointEvent) error {
	if s == nil || s.emit == nil {
		return nil
	}
	return s.emit(ev)
}

// outcome pairs a sub-job's result with its provenance.
type outcome struct {
	res  *Result
	info Info
}

// runPoints executes the prepared sub-jobs on the bounded worker pool
// with incremental in-order delivery: deliver(i, o) runs on the calling
// goroutine for i = 0, 1, 2, … as soon as point i (and every point
// before it) is done, while later points are still being computed.
func (e *Engine) runPoints(ctx context.Context, preps []*Prepared, wrap func(i int, err error) error, deliver func(i int, o outcome) error) error {
	return batch.Stream(ctx, len(preps),
		func(ctx context.Context, i int) (outcome, error) {
			res, info, err := e.runPrepared(ctx, preps[i], nil)
			if err != nil {
				return outcome{}, wrap(i, err)
			}
			return outcome{res: res, info: info}, nil
		},
		deliver)
}

// runDesign resolves a nested design sub-job (thermalmap "optimal",
// transient, runtime) through the engine — cache-shared with any direct
// submission of the same job — and emits it as the parent's single
// point.
func (e *Engine) runDesign(ctx context.Context, snk *sink, sub *Job, what string) (*control.Result, error) {
	p, err := PrepareJob(sub)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", what, err)
	}
	res, info, err := e.runPrepared(ctx, p, nil)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", what, err)
	}
	if err := snk.point(PointEvent{Index: 0, Total: 1, Info: info, Design: res.Optimize}); err != nil {
		return nil, err
	}
	return res.Optimize, nil
}

// replay re-emits the point events of an already-computed parent result
// (a cache hit or a coalesced submission): per-point payloads come from
// the parent's reduction, provenance mirrors how the parent was served.
// Design payloads are looked up in the cache by sub-job address and are
// nil if evicted.
func (e *Engine) replay(canon *Job, res *Result, how Info, emit func(PointEvent) error) error {
	if emit == nil {
		return nil
	}
	mark := func(hash string) Info {
		return Info{Hash: hash, CacheHit: how.CacheHit, Coalesced: how.Coalesced}
	}
	switch {
	case res.Sweep != nil:
		n := len(res.Sweep.Points)
		for i := range res.Sweep.Points {
			pt := &res.Sweep.Points[i]
			if err := emit(PointEvent{Index: i, Total: n, Info: mark(pt.Hash), Sweep: pt}); err != nil {
				return err
			}
		}
	case res.Experiment != nil:
		n := len(res.Experiment.Cases)
		for i := range res.Experiment.Cases {
			c := &res.Experiment.Cases[i]
			if err := emit(PointEvent{Index: i, Total: n, Info: mark(c.Hash), Case: c}); err != nil {
				return err
			}
		}
	default:
		subs := subJobs(canon)
		for i, sub := range subs {
			p, err := PrepareJob(sub)
			if err != nil {
				return err
			}
			var design *control.Result
			if sr, ok := e.cache.get(p.Hash); ok {
				design = sr.Optimize
			}
			ev := PointEvent{Index: i, Total: len(subs), Info: mark(p.Hash), Design: design}
			if err := emit(ev); err != nil {
				return err
			}
		}
	}
	return nil
}
