package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/units"
)

// fastJob is a single-model-solve job (baseline evaluation), cheap
// enough to run many times in the cache tests.
func fastJob() *Job {
	return &Job{
		Kind:     KindOptimize,
		Scenario: twoChannelScenario(),
		Optimize: &OptimizeSpec{Variant: VariantBaseline},
	}
}

func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// TestWarmHitBitIdentical: a warm cache hit returns a bit-identical
// result to the cold run — in fact the same immutable value — and a
// second engine instance reproduces the same bytes from scratch.
func TestWarmHitBitIdentical(t *testing.T) {
	eng := New(8)
	cold, coldInfo, err := eng.RunInfo(context.Background(), fastJob())
	if err != nil {
		t.Fatal(err)
	}
	if coldInfo.CacheHit || coldInfo.Coalesced {
		t.Fatalf("cold run reported info %+v", coldInfo)
	}
	warm, warmInfo, err := eng.RunInfo(context.Background(), fastJob())
	if err != nil {
		t.Fatal(err)
	}
	if !warmInfo.CacheHit {
		t.Fatalf("second submission missed the cache: %+v", warmInfo)
	}
	if warm != cold {
		t.Fatalf("warm hit returned a different result value")
	}
	if !bytes.Equal(resultBytes(t, cold), resultBytes(t, warm)) {
		t.Fatalf("warm result serialized differently from cold")
	}

	// Cross-instance determinism: a fresh engine computes the same bytes.
	fresh, err := New(8).Run(context.Background(), fastJob())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, cold), resultBytes(t, fresh)) {
		t.Fatalf("fresh engine produced different bytes than the cold run")
	}

	st := eng.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit", st)
	}
}

// TestConcurrentIdenticalSubmissions: N concurrent submissions of one
// job cost exactly one execution; every caller sees the same result.
// Run under -race this also proves the singleflight/cache layering is
// data-race-free.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	const n = 16
	eng := New(8)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []*Result
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Run(context.Background(), fastJob())
			if err != nil {
				t.Errorf("Run: %v", err)
				return
			}
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(results) != n {
		t.Fatalf("%d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("submission %d saw a different result value", i)
		}
	}
	st := eng.Stats()
	if st.Misses != 1 {
		t.Errorf("%d executions for %d identical submissions, want 1 (stats %+v)", st.Misses, n, st)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Errorf("hits %d + coalesced %d, want %d", st.Hits, st.Coalesced, n-1)
	}
}

// TestDifferentJobsDistinctResults: jobs differing in a semantic field
// execute independently and never alias each other's cache entries.
func TestDifferentJobsDistinctResults(t *testing.T) {
	eng := New(8)
	a, err := eng.Run(context.Background(), fastJob())
	if err != nil {
		t.Fatal(err)
	}
	narrower := fastJob()
	narrower.Optimize.WidthUM = 20
	b, err := eng.Run(context.Background(), narrower)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("semantically different jobs shared a cache entry")
	}
	if a.Optimize.GradientK == b.Optimize.GradientK {
		t.Error("different widths produced identical gradients — cache collision?")
	}
	if st := eng.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses / 2 entries", st)
	}
}

// TestLRUEviction: a capacity-1 engine recomputes the evicted job.
func TestLRUEviction(t *testing.T) {
	eng := New(1)
	jobB := fastJob()
	jobB.Optimize.WidthUM = 20
	for _, j := range []*Job{fastJob(), jobB, fastJob()} {
		if _, err := eng.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Misses != 3 || st.Evictions != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 3 misses / 2 evictions / 1 entry", st)
	}
}

// TestCompareJobMatchesDirect: the engine's compare pipeline is the
// library's Compare — bit-identical, not merely close.
func TestCompareJobMatchesDirect(t *testing.T) {
	scn := twoChannelScenario()
	scn.Segments, scn.OuterIterations = 2, 1
	job := &Job{Kind: KindCompare, Scenario: scn}
	res, err := New(4).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := scn.Spec()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Compare(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Compare, direct
	if got.Optimal.GradientK != want.Optimal.GradientK ||
		got.MinWidth.GradientK != want.MinWidth.GradientK ||
		got.MaxWidth.GradientK != want.MaxWidth.GradientK {
		t.Errorf("engine gradients (%v %v %v) != direct (%v %v %v)",
			got.MinWidth.GradientK, got.MaxWidth.GradientK, got.Optimal.GradientK,
			want.MinWidth.GradientK, want.MaxWidth.GradientK, want.Optimal.GradientK)
	}
	for k, p := range got.Optimal.Profiles {
		if !reflect.DeepEqual(p.Widths(), want.Optimal.Profiles[k].Widths()) {
			t.Errorf("channel %d optimal profile differs from direct solve", k)
		}
	}
}

// TestSweepJobMatchesDirect: the flow sweep reproduces a serial
// baseline loop exactly.
func TestSweepJobMatchesDirect(t *testing.T) {
	scn := twoChannelScenario()
	scn.Segments = 1
	job := &Job{
		Kind:     KindSweep,
		Scenario: scn,
		Sweep:    &SweepSpec{Kind: SweepFlow, Points: 2},
	}
	res, err := New(4).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Sweep.Points); n != 2 {
		t.Fatalf("%d sweep points, want 2", n)
	}
	for i, pt := range res.Sweep.Points {
		spec, err := scn.Spec()
		if err != nil {
			t.Fatal(err)
		}
		spec.Params.FlowRatePerChannel = units.MilliLitersPerMinute(pt.FlowMLMin)
		direct, err := control.Baseline(spec, spec.Bounds.Max)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Result.GradientK != direct.GradientK || pt.Result.PeakK != direct.PeakK {
			t.Errorf("point %d: engine (%v, %v) != direct (%v, %v)",
				i, pt.Result.GradientK, pt.Result.PeakK, direct.GradientK, direct.PeakK)
		}
	}
}

// TestThermalMapJob: the channel-column map solves and exposes a
// plausible field (full parity with the hand-built validation stack is
// asserted by the CLI-equivalence checks in cmd/).
func TestThermalMapJob(t *testing.T) {
	scn := twoChannelScenario()
	job := &Job{
		Kind:     KindThermalMap,
		Scenario: scn,
		Map:      &MapSpec{Widths: WidthsMax, NX: 12},
	}
	res, err := New(4).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Map.Field
	if f.NX != 12 || f.NY != 2 {
		t.Fatalf("field %dx%d, want 12x2 (one row per channel)", f.NX, f.NY)
	}
	if g := f.Gradient(); !(g > 0) {
		t.Errorf("non-positive gradient %v", g)
	}
}

// TestMapOptimalSharesCacheWithOptimize: a thermal map of the optimum
// runs the scenario's optimize job through the engine, so a direct
// optimize submission afterwards is a cache hit.
func TestMapOptimalSharesCacheWithOptimize(t *testing.T) {
	scn := twoChannelScenario()
	scn.Segments, scn.OuterIterations = 2, 1
	eng := New(8)
	if _, err := eng.Run(context.Background(), &Job{
		Kind:     KindThermalMap,
		Scenario: scn,
		Map:      &MapSpec{Widths: WidthsOptimal, NX: 10},
	}); err != nil {
		t.Fatal(err)
	}
	_, info, err := eng.RunInfo(context.Background(), &Job{Kind: KindOptimize, Scenario: scn})
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Errorf("optimize after optimal map was not a cache hit (info %+v)", info)
	}
}

// TestRunAllOrder: RunAll keeps slot correspondence.
func TestRunAllOrder(t *testing.T) {
	eng := New(8)
	jobA, jobB := fastJob(), fastJob()
	jobB.Optimize.WidthUM = 20
	results, err := eng.RunAll(context.Background(), []*Job{jobA, jobB, jobA})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] != results[2] {
		t.Error("identical jobs in one batch returned different values")
	}
	if results[0] == results[1] {
		t.Error("different jobs in one batch aliased")
	}
}

// TestRuntimeJobsShareTraceDesign: two runtime jobs differing only in
// the valve-authority range resolve their static design through the
// same cached trace-design sub-job — the design is optimized once.
func TestRuntimeJobsShareTraceDesign(t *testing.T) {
	scn := tracedScenario()
	scn.Segments, scn.OuterIterations = 2, 1
	mk := func(lo, hi float64) *Job {
		j := &Job{Kind: KindRuntime, Scenario: scn}
		rt := *scn.Runtime
		rt.FlowScaleRange = [2]float64{lo, hi}
		j.Scenario.Runtime = &rt
		return j
	}
	eng := New(8)
	results, err := eng.RunAll(context.Background(), []*Job{mk(0.5, 2), mk(0.8, 1.25)})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] == results[1] {
		t.Fatal("different valve ranges aliased one result")
	}
	if !reflect.DeepEqual(results[0].Runtime.Result.Profiles, results[1].Runtime.Result.Profiles) {
		t.Error("the two ranges ran different static designs")
	}
	// Three executions total: two runtime jobs + one shared design.
	st := eng.Stats()
	if st.Misses != 3 {
		t.Errorf("%d executions, want 3 (two runtime jobs + one shared trace design; stats %+v)",
			st.Misses, st)
	}
}

// TestTransientOverflowingPhaseScale: a trace phase whose scale overflows
// the base loads passes the checks, which compute no loads, and is then
// the job's error naming the phase, not a panic.
func TestTransientOverflowingPhaseScale(t *testing.T) {
	scn := tracedScenario()
	for k := range scn.Channels {
		scn.Channels[k] = scenario.Channel{TopWcm2: []float64{50, 50}, BottomWcm2: []float64{50, 50}}
	}
	huge := 1e306
	scn.Trace.Phases[1].Scale = &huge
	job := &Job{Kind: KindTransient, Scenario: scn, Transient: &TransientSpec{WidthUM: 50}}
	_, err := New(8).Run(context.Background(), job)
	if err == nil {
		t.Fatal("a transient job with an overflowing phase scale did not fail")
	}
	if msg := err.Error(); !strings.Contains(msg, "scenario: trace phase 1: ") || strings.Contains(msg, "panicked") {
		t.Fatalf("job error %q, want the phase named and no panic", msg)
	}
}

// TestRunErrorNotCached: failures are recomputed, not served from the
// cache.
func TestRunErrorNotCached(t *testing.T) {
	eng := New(8)
	bad := &Job{Kind: KindCompare, Scenario: twoChannelScenario()}
	bad.Scenario.Channels = nil
	if _, err := eng.Run(context.Background(), bad); err == nil {
		t.Fatal("invalid job did not fail")
	}
	if st := eng.Stats(); st.Entries != 0 {
		t.Errorf("failed job left %d cache entries", st.Entries)
	}
}
