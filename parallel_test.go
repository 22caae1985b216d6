package channelmod

// Tests and benchmarks for the concurrent batch-evaluation engine: the
// determinism contract (parallel BatchCompare / BatchOptimize are
// bit-identical to serial loops) and the multicore speedup benchmark
// (go test -bench BatchCompare).

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/units"
)

// batchSpecs builds a family of small independent Test-A variants: the
// pressure budget and flow rate vary per spec so every problem has a
// distinct optimum.
func batchSpecs(tb testing.TB, n int) []*Spec {
	tb.Helper()
	specs := make([]*Spec, n)
	for i := range specs {
		spec, err := TestA()
		if err != nil {
			tb.Fatal(err)
		}
		spec.Segments = 4
		spec.OuterIterations = 1
		// Loose budgets (≥ 4 bar) keep every variant feasible within one
		// outer multiplier update.
		spec.MaxPressure = units.Bar(float64(4 + 2*i))
		specs[i] = spec
	}
	return specs
}

func sameResult(tb testing.TB, tag string, a, b *Result) {
	tb.Helper()
	if a.GradientK != b.GradientK {
		tb.Fatalf("%s: gradient %v != %v", tag, a.GradientK, b.GradientK)
	}
	if a.PeakK != b.PeakK {
		tb.Fatalf("%s: peak %v != %v", tag, a.PeakK, b.PeakK)
	}
	if a.Objective != b.Objective {
		tb.Fatalf("%s: objective %v != %v", tag, a.Objective, b.Objective)
	}
	if len(a.PressureDrops) != len(b.PressureDrops) {
		tb.Fatalf("%s: %d pressure drops != %d", tag, len(a.PressureDrops), len(b.PressureDrops))
	}
	for i := range a.PressureDrops {
		if a.PressureDrops[i] != b.PressureDrops[i] {
			tb.Fatalf("%s: ΔP[%d] %v != %v", tag, i, a.PressureDrops[i], b.PressureDrops[i])
		}
	}
	if len(a.Profiles) != len(b.Profiles) {
		tb.Fatalf("%s: %d profiles != %d", tag, len(a.Profiles), len(b.Profiles))
	}
	for k := range a.Profiles {
		wa, wb := a.Profiles[k].Widths(), b.Profiles[k].Widths()
		if len(wa) != len(wb) {
			tb.Fatalf("%s: profile %d has %d segments != %d", tag, k, len(wa), len(wb))
		}
		for i := range wa {
			if wa[i] != wb[i] {
				tb.Fatalf("%s: profile %d width[%d] %v != %v", tag, k, i, wa[i], wb[i])
			}
		}
	}
}

// TestBatchCompareDeterminism: one parallel BatchCompare call must return
// results bit-identical to a serial Compare loop, slot by slot. GOMAXPROCS
// is forced above 1 so the worker pools genuinely run concurrently even on
// single-core CI machines (and -race observes the concurrent path).
func TestBatchCompareDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("optimization-heavy")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	const n = 4
	serial := make([]*Comparison, n)
	for i, spec := range batchSpecs(t, n) {
		c, err := Compare(spec)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = c
	}
	parallel, err := BatchCompare(batchSpecs(t, n))
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != n {
		t.Fatalf("got %d comparisons, want %d", len(parallel), n)
	}
	for i := range parallel {
		sameResult(t, "min", serial[i].MinWidth, parallel[i].MinWidth)
		sameResult(t, "max", serial[i].MaxWidth, parallel[i].MaxWidth)
		sameResult(t, "optimal", serial[i].Optimal, parallel[i].Optimal)
	}
}

// TestBatchOptimizeDeterminism covers the multi-channel decoupled path:
// the per-channel fan-out inside Optimize must not change results either.
func TestBatchOptimizeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("optimization-heavy")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	mk := func() *Spec {
		spec, err := Architecture(1, Peak)
		if err != nil {
			t.Fatal(err)
		}
		spec.Segments = 3
		spec.OuterIterations = 1
		return spec
	}
	serial, err := Optimize(mk())
	if err != nil {
		t.Fatal(err)
	}
	batched, err := BatchOptimize([]*Spec{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batched {
		if r == nil {
			t.Fatalf("slot %d is nil", i)
		}
		sameResult(t, "arch1", serial, r)
	}
}

// TestBatchCompareErrors: the batch API must surface the error of the
// lowest-indexed failing spec, as a serial loop would.
func TestBatchCompareErrors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	specs := batchSpecs(t, 4)
	specs[1].Channels = nil // invalid
	specs[3].Channels = nil
	_, err := BatchCompare(specs)
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	want := "spec 1"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("error %q does not name the lowest failing spec (%q)", got, want)
	}
	if _, err := BatchOptimize(specs[1:2]); err == nil {
		t.Fatal("BatchOptimize accepted an invalid spec")
	}
}

// TestBatchCompareCancellation: a pre-cancelled context must stop the
// batch without evaluating anything.
func TestBatchCompareCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BatchCompareContext(ctx, batchSpecs(t, 3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	_, err = BatchOptimizeContext(ctx, batchSpecs(t, 3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestBatchCompareEmpty(t *testing.T) {
	out, err := BatchCompare(nil)
	if err != nil || out != nil {
		t.Fatalf("empty batch: got %v, %v", out, err)
	}
}

// BenchmarkBatchCompare measures the batch engine against the equivalent
// serial Compare loop over the same spec family. On an N-core machine the
// parallel case approaches N× (each Test-A optimization is serial on the
// critical path, and the specs are independent); the acceptance bar is
// ≥ 1.5× on ≥ 4 cores:
//
//	go test -bench BatchCompare -benchtime 3x
func BenchmarkBatchCompare(b *testing.B) {
	const n = 8
	b.Run("serial", func(b *testing.B) {
		// Pin GOMAXPROCS to 1 so every pool degrades to its serial fast
		// path: the baseline is a genuinely serial Compare loop, not
		// Compare's own 3-way fan-out.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, spec := range batchSpecs(b, n) {
				cmp, err := Compare(spec)
				if err != nil {
					b.Fatal(err)
				}
				if cmp.Optimal.GradientK <= 0 {
					b.Fatal("bad result")
				}
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cmps, err := BatchCompare(batchSpecs(b, n))
			if err != nil {
				b.Fatal(err)
			}
			for _, cmp := range cmps {
				if cmp.Optimal.GradientK <= 0 {
					b.Fatal("bad result")
				}
			}
		}
	})
}

// BenchmarkBatchOptimizeArch exercises the per-channel fan-out inside one
// multi-channel optimization (the decoupled phase of Optimize) — the
// second axis of parallelism.
func BenchmarkBatchOptimizeArch(b *testing.B) {
	spec, err := Architecture(1, Peak)
	if err != nil {
		b.Fatal(err)
	}
	spec.Segments = 4
	spec.OuterIterations = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Optimize(spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.GradientK <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkCompareArch exercises the per-channel fan-out nested inside a
// comparison: Compare's batch.Do runs the two baselines beside the
// optimization, whose decoupled phase fans the 11 channels of Arch 2 out
// on a nested pool. The nested pool takes each baseline's slot as that
// baseline finishes, so on N cores a comparison approaches the standalone
// Optimize time rather than its serial one:
//
//	go test -bench CompareArch -cpu 2 -benchtime 3x
func BenchmarkCompareArch(b *testing.B) {
	spec, err := Architecture(2, Peak)
	if err != nil {
		b.Fatal(err)
	}
	spec.Segments = 4
	spec.OuterIterations = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := Compare(spec)
		if err != nil {
			b.Fatal(err)
		}
		if cmp.Optimal.GradientK <= 0 {
			b.Fatal("bad result")
		}
	}
}

// TestBatchOptimizeEvaluatorPerWorker pins down the workspace-cache
// concurrency contract: every optimization worker inside BatchOptimize
// holds its own compact.Evaluator (no sharing, no locks — validated by CI's
// -race run of this test), the transition cache sees heavy reuse, and the
// work counters themselves are deterministic: the batched run reports
// exactly the same solver work as a serial run of the same spec.
func TestBatchOptimizeEvaluatorPerWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("optimization-heavy")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	mk := func() *Spec {
		spec, err := Architecture(2, Peak)
		if err != nil {
			t.Fatal(err)
		}
		spec.Segments = 3
		spec.OuterIterations = 1
		return spec
	}
	serial, err := Optimize(mk())
	if err != nil {
		t.Fatal(err)
	}
	batched, err := BatchOptimize([]*Spec{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batched {
		sameResult(t, "arch2", serial, r)
		if r.Stats != serial.Stats {
			t.Fatalf("slot %d: stats %+v != serial %+v", i, r.Stats, serial.Stats)
		}
	}
	st := serial.Stats
	if st.ModelSolves == 0 || st.InnerEvaluations == 0 {
		t.Fatalf("stats not threaded: %+v", st)
	}
	if st.TransitionHits <= st.TransitionMisses {
		t.Fatalf("expected dominant cache reuse, got %d hits / %d misses",
			st.TransitionHits, st.TransitionMisses)
	}
}
