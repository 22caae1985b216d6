package engine

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/scenario"
)

// flowSweepJob builds a cheap flow sweep (single-segment baseline
// evaluations) over the two-channel scenario at the given flow points.
func flowSweepJob(flows []float64) *Job {
	scn := twoChannelScenario()
	scn.Segments = 1
	return &Job{
		Kind:     KindSweep,
		Scenario: scn,
		Sweep:    &SweepSpec{Kind: SweepFlow, FlowMLMin: flows},
	}
}

// TestOverlappingSweepsSolveSharedPointsOnce: two sweeps sharing points
// re-solve only the points they do not share — the exact hit/miss
// accounting of per-point content addressing.
func TestOverlappingSweepsSolveSharedPointsOnce(t *testing.T) {
	eng := New(32)
	if _, err := eng.Run(context.Background(), flowSweepJob([]float64{0.2, 0.4})); err != nil {
		t.Fatal(err)
	}
	// Parent + 2 points, all cold.
	if st := eng.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("first sweep: stats %+v, want 3 misses / 0 hits", st)
	}

	wide, err := eng.Run(context.Background(), flowSweepJob([]float64{0.2, 0.4, 0.8}))
	if err != nil {
		t.Fatal(err)
	}
	// The widened sweep is a new parent (1 miss) whose first two points
	// are warm (2 hits); only the third point solves (1 miss).
	if st := eng.Stats(); st.Misses != 5 || st.Hits != 2 {
		t.Fatalf("after widened sweep: stats %+v, want 5 misses / 2 hits", st)
	}
	if n := len(wide.Sweep.Points); n != 3 {
		t.Fatalf("widened sweep has %d points, want 3", n)
	}
	for i, pt := range wide.Sweep.Points {
		if pt.Hash == "" || pt.Result == nil {
			t.Errorf("point %d missing hash or result: %+v", i, pt)
		}
	}
}

// TestSweepPointSharesCacheWithDirectJob: a sweep point and the
// equivalent standalone optimize job are the same content address.
func TestSweepPointSharesCacheWithDirectJob(t *testing.T) {
	eng := New(16)
	res, err := eng.Run(context.Background(), flowSweepJob([]float64{0.3}))
	if err != nil {
		t.Fatal(err)
	}
	scn := twoChannelScenario()
	scn.Segments = 1
	scn.Params.FlowRateMLMin = 0.3
	direct := &Job{Kind: KindOptimize, Scenario: scn,
		Optimize: &OptimizeSpec{Variant: VariantBaseline}}
	dres, info, err := eng.RunInfo(context.Background(), direct)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Errorf("direct optimize after sweep was not a cache hit (info %+v)", info)
	}
	if info.Hash != res.Sweep.Points[0].Hash {
		t.Errorf("direct job hash %s != sweep point hash %s", info.Hash, res.Sweep.Points[0].Hash)
	}
	if dres.Optimize != res.Sweep.Points[0].Result {
		t.Error("direct job returned a different result value than the sweep point")
	}
}

// TestArchCaseHashMatchesDirectCompare: decomposition is pure
// addressing — an arch-experiment combo sub-job hashes identically to
// the equivalent direct compare job (no execution needed to prove it).
func TestArchCaseHashMatchesDirectCompare(t *testing.T) {
	tuned := scenario.File{Segments: 12, OuterIterations: 4}
	job := &Job{
		Kind:       KindArchExperiment,
		Scenario:   tuned,
		Experiment: &ExperimentSpec{Archs: []int{2}, Modes: []string{"average"}},
	}
	canon, err := job.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	subs := subJobs(canon)
	if len(subs) != 1 {
		t.Fatalf("%d sub-jobs, want 1", len(subs))
	}
	subHash := mustHash(t, subs[0])

	direct := &Job{Kind: KindCompare, Scenario: tuned}
	direct.Scenario.Preset = "arch2"
	direct.Scenario.Mode = "average"
	if h := mustHash(t, direct); h != subHash {
		t.Errorf("combo sub-job hash %s != direct compare hash %s", subHash, h)
	}
}

// TestStreamMatchesRun: a streamed sweep delivers every point in order
// with live provenance, and the assembled parent is bit-identical to a
// plain Run on a fresh engine.
func TestStreamMatchesRun(t *testing.T) {
	flows := []float64{0.2, 0.4, 0.6}
	var events []PointEvent
	streamed, info, err := New(16).RunStream(context.Background(), flowSweepJob(flows),
		func(ev PointEvent) error {
			events = append(events, ev)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheHit || info.Coalesced {
		t.Fatalf("cold stream reported %+v", info)
	}
	if len(events) != len(flows) {
		t.Fatalf("%d events, want %d", len(events), len(flows))
	}
	for i, ev := range events {
		if ev.Index != i || ev.Total != len(flows) {
			t.Errorf("event %d: index %d / total %d", i, ev.Index, ev.Total)
		}
		if ev.Sweep == nil || ev.Sweep.FlowMLMin != flows[i] {
			t.Errorf("event %d: payload %+v, want flow %g", i, ev.Sweep, flows[i])
		}
		if ev.Info.Hash == "" || ev.Info.CacheHit || ev.Info.Coalesced {
			t.Errorf("event %d: cold-run provenance %+v", i, ev.Info)
		}
		if ev.Sweep.Hash != ev.Info.Hash {
			t.Errorf("event %d: row hash %s != provenance hash %s", i, ev.Sweep.Hash, ev.Info.Hash)
		}
	}

	plain, err := New(16).Run(context.Background(), flowSweepJob(flows))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, streamed), resultBytes(t, plain)) {
		t.Error("streamed sweep result is not bit-identical to the batch run")
	}
}

// TestStreamReplayFromCache: a second stream of a finished job replays
// every point from the parent's reduction, marked as cache-served.
func TestStreamReplayFromCache(t *testing.T) {
	eng := New(16)
	job := flowSweepJob([]float64{0.2, 0.4})
	cold, _, err := eng.RunStream(context.Background(), job, func(PointEvent) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var events []PointEvent
	warm, info, err := eng.RunStream(context.Background(), flowSweepJob([]float64{0.2, 0.4}),
		func(ev PointEvent) error {
			events = append(events, ev)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatalf("second stream missed the cache: %+v", info)
	}
	if warm != cold {
		t.Error("replayed stream returned a different result value")
	}
	if len(events) != 2 {
		t.Fatalf("%d replayed events, want 2", len(events))
	}
	for i, ev := range events {
		if !ev.Info.CacheHit {
			t.Errorf("replayed event %d not marked as a cache hit: %+v", i, ev.Info)
		}
		if ev.Sweep == nil || ev.Info.Hash != cold.Sweep.Points[i].Hash {
			t.Errorf("replayed event %d payload/hash mismatch", i)
		}
	}
}

// TestStreamEmitErrorAborts: an emit failure cancels the execution,
// the parent is not cached, and already-solved points stay reusable.
func TestStreamEmitErrorAborts(t *testing.T) {
	eng := New(16)
	job := flowSweepJob([]float64{0.2, 0.4, 0.6})
	boom := errors.New("emitter gone")
	_, info, err := eng.RunStream(context.Background(), job, func(ev PointEvent) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("stream error %v, want %v", err, boom)
	}
	if _, ok := eng.Lookup(info.Hash); ok {
		t.Error("aborted parent was cached")
	}
	// Re-running reuses the points that completed before the abort.
	if _, err := eng.Run(context.Background(), flowSweepJob([]float64{0.2, 0.4, 0.6})); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits == 0 {
		t.Errorf("re-run after abort reused no points (stats %+v)", st)
	}
}

// TestTransientStreamEmitsDesignPoint: a transient job that designs
// against its trace emits the nested trace-design sub-job as its single
// point, and the replayed stream resolves the same address.
func TestTransientStreamEmitsDesignPoint(t *testing.T) {
	scn := tracedScenario()
	scn.Segments, scn.OuterIterations = 2, 1
	eng := New(16)
	var events []PointEvent
	if _, _, err := eng.RunStream(context.Background(), &Job{Kind: KindTransient, Scenario: scn},
		func(ev PointEvent) error {
			events = append(events, ev)
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("%d events, want 1 (the trace design)", len(events))
	}
	if events[0].Design == nil || events[0].Total != 1 {
		t.Fatalf("design event %+v", events[0])
	}
	if events[0].Info.CacheHit || events[0].Info.Coalesced {
		t.Errorf("cold design point provenance %+v", events[0].Info)
	}

	var replayed []PointEvent
	scn2 := tracedScenario()
	scn2.Segments, scn2.OuterIterations = 2, 1
	if _, info, err := eng.RunStream(context.Background(), &Job{Kind: KindTransient, Scenario: scn2},
		func(ev PointEvent) error {
			replayed = append(replayed, ev)
			return nil
		}); err != nil {
		t.Fatal(err)
	} else if !info.CacheHit {
		t.Fatalf("second transient stream missed the cache: %+v", info)
	}
	if len(replayed) != 1 || replayed[0].Info.Hash != events[0].Info.Hash {
		t.Fatalf("replayed design events %+v, want the original address %s", replayed, events[0].Info.Hash)
	}
	if replayed[0].Design == nil {
		t.Error("replayed design payload missing despite a warm sub-result")
	}
}

// TestCompareReusesCachedOptimum: a compare is its two uniform-width
// baselines plus the modulation optimum as sub-jobs, so after an
// optimize of the same scenario its optimum event is a cache hit and
// only the baselines solve; its bytes equal a fresh engine's compare,
// and a replayed stream carries the same three designs.
func TestCompareReusesCachedOptimum(t *testing.T) {
	scn := twoChannelScenario()
	scn.Segments, scn.OuterIterations = 2, 1
	optimize := &Job{Kind: KindOptimize, Scenario: scn}
	compare := &Job{Kind: KindCompare, Scenario: scn}

	eng := New(16)
	opt, err := eng.Run(context.Background(), optimize)
	if err != nil {
		t.Fatal(err)
	}
	var events []PointEvent
	res, info, err := eng.RunStream(context.Background(), compare, func(ev PointEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheHit || info.Coalesced {
		t.Fatalf("first compare served as %+v", info)
	}
	if len(events) != 3 {
		t.Fatalf("%d point events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Index != i || ev.Total != 3 || ev.Design == nil {
			t.Fatalf("event %d: %+v", i, ev)
		}
		if hit := ev.Info.CacheHit; hit != (i == 2) {
			t.Errorf("event %d cache hit %v, want %v", i, hit, i == 2)
		}
	}
	if events[2].Design != opt.Optimize || res.Compare.Optimal != opt.Optimize {
		t.Error("compare did not reuse the cached optimum")
	}
	if res.Compare.MinWidth != events[0].Design || res.Compare.MaxWidth != events[1].Design {
		t.Error("compare baselines differ from their events")
	}
	// Optimize, compare and its two baselines solved; the optimum hit.
	if st := eng.Stats(); st.Misses != 4 || st.Hits != 1 {
		t.Errorf("stats %+v, want 4 misses / 1 hit", st)
	}

	fresh, err := New(16).Run(context.Background(), compare)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, res), resultBytes(t, fresh)) {
		t.Fatal("compare after a cached optimize differs from a fresh engine's compare")
	}

	var replayed []PointEvent
	if _, info, err := eng.RunStream(context.Background(), compare, func(ev PointEvent) error {
		replayed = append(replayed, ev)
		return nil
	}); err != nil || !info.CacheHit {
		t.Fatalf("replay: info %+v, err %v", info, err)
	}
	if len(replayed) != 3 {
		t.Fatalf("replay carried %d events, want 3", len(replayed))
	}
	for i, ev := range replayed {
		if ev.Info.Hash != events[i].Info.Hash || ev.Design != events[i].Design {
			t.Errorf("replayed event %d differs: %+v vs %+v", i, ev, events[i])
		}
	}
}
