package compact

// Benchmarks for the workspace-cached evaluation pipeline. The pairs
// compare the pre-refactor pattern (build a Model, Solve from scratch,
// re-propagating every transition) against a warm Evaluator session:
//
//	go test -run '^$' -bench Evaluator -benchmem ./internal/compact/
//
// Acceptance targets (ISSUE 2): the warm BenchmarkEvaluatorSolve* must show
// ≥5× fewer allocs/op than the matching fresh BenchmarkModelSolve*, and the
// gradient-shaped pair must show a wall-clock speedup from piecewise
// transition reuse.

import (
	"testing"

	"repro/internal/microchannel"
)

// benchChannel builds the K-segment modulated design shared by the
// benchmarks: a linear 45→20 µm taper under a uniform 120 W/cm² load.
func benchChannel(tb testing.TB, p Params, segs int) Channel {
	tb.Helper()
	prof, err := microchannel.NewLinear(45e-6, 20e-6, p.Length, segs)
	if err != nil {
		tb.Fatal(err)
	}
	ft, err := NewUniformFlux(arealToLinear(p, 120), p.Length)
	if err != nil {
		tb.Fatal(err)
	}
	return Channel{Width: prof, FluxTop: ft, FluxBottom: ft}
}

func benchChannels(tb testing.TB, p Params, n, segs int) []Channel {
	chans := make([]Channel, n)
	for k := range chans {
		chans[k] = benchChannel(tb, p, segs)
	}
	return chans
}

// BenchmarkModelSolve is the fresh-model baseline: every iteration pays
// model construction, transition propagation and all solver allocations.
func BenchmarkModelSolve(b *testing.B) {
	p := DefaultParams()
	ch := benchChannel(b, p, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &Model{Params: p, Channels: []Channel{ch}}
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorSolve is the warm-session counterpart of
// BenchmarkModelSolve: transitions come from the memo, scratch from the
// workspace. Results are bit-identical to the fresh path.
func BenchmarkEvaluatorSolve(b *testing.B) {
	p := DefaultParams()
	chans := benchChannels(b, p, 1, 20)
	ev := NewEvaluator(p)
	if _, err := ev.Solve(chans); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Solve(chans); err != nil {
			b.Fatal(err)
		}
	}
}

// Eliminated-form pair (the single-channel optimizer hot path).
func BenchmarkModelSolveEliminated(b *testing.B) {
	p := DefaultParams()
	ch := benchChannel(b, p, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &Model{Params: p, Channels: []Channel{ch}}
		if _, err := m.SolveEliminated(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorSolveEliminated(b *testing.B) {
	p := DefaultParams()
	ch := benchChannel(b, p, 20)
	ev := NewEvaluator(p)
	if _, err := ev.SolveEliminated(ch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.SolveEliminated(ch); err != nil {
			b.Fatal(err)
		}
	}
}

// Multi-channel coupled pair (the joint optimizer and final-report path).
func BenchmarkModelSolveJoint3(b *testing.B) {
	p := DefaultParams()
	chans := benchChannels(b, p, 3, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &Model{Params: p, Channels: chans}
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorSolveJoint3(b *testing.B) {
	p := DefaultParams()
	chans := benchChannels(b, p, 3, 20)
	ev := NewEvaluator(p)
	if _, err := ev.Solve(chans); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Solve(chans); err != nil {
			b.Fatal(err)
		}
	}
}

// gradientSweep solves the base design plus K single-segment perturbations
// — exactly the shape of one finite-difference gradient in the optimizer.
func gradientSweep(b *testing.B, solve func(Channel) error, base Channel, segs int) {
	b.Helper()
	if err := solve(base); err != nil {
		b.Fatal(err)
	}
	for s := 0; s < segs; s++ {
		prof := base.Width.Clone()
		prof.SetWidth(s, prof.Width(s)+1e-8)
		if err := solve(Channel{Width: prof, FluxTop: base.FluxTop, FluxBottom: base.FluxBottom}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelGradient is the pre-refactor cost of one K-segment
// finite-difference gradient: K+1 full fresh solves.
func BenchmarkModelGradient(b *testing.B) {
	p := DefaultParams()
	const segs = 20
	base := benchChannel(b, p, segs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gradientSweep(b, func(ch Channel) error {
			m := &Model{Params: p, Channels: []Channel{ch}}
			_, err := m.SolveEliminated()
			return err
		}, base, segs)
	}
}

// BenchmarkEvaluatorGradient is the same sweep on a warm session: each
// perturbed solve recomputes only the pieces overlapping its segment and
// reuses every other transition verbatim.
func BenchmarkEvaluatorGradient(b *testing.B) {
	p := DefaultParams()
	const segs = 20
	base := benchChannel(b, p, segs)
	ev := NewEvaluator(p)
	gradientSweep(b, func(ch Channel) error {
		_, err := ev.SolveEliminated(ch)
		return err
	}, base, segs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gradientSweep(b, func(ch Channel) error {
			_, err := ev.SolveEliminated(ch)
			return err
		}, base, segs)
	}
}
