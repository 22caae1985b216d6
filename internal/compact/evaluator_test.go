package compact

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/microchannel"
)

// benchLikeChannel builds a single modulated channel with segW width
// segments and segF flux segments from a seeded generator.
func testChannel(t testing.TB, p Params, rng *rand.Rand, segW, segF int) Channel {
	t.Helper()
	ws := make([]float64, segW)
	for i := range ws {
		ws[i] = 12e-6 + rng.Float64()*35e-6
	}
	w, err := microchannel.NewProfile(ws, p.Length)
	if err != nil {
		t.Fatal(err)
	}
	f1 := make([]float64, segF)
	f2 := make([]float64, segF)
	for i := range f1 {
		f1[i] = arealToLinear(p, 40+rng.Float64()*180)
		f2[i] = arealToLinear(p, 40+rng.Float64()*180)
	}
	ft, err := NewFlux(f1, p.Length)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := NewFlux(f2, p.Length)
	if err != nil {
		t.Fatal(err)
	}
	return Channel{Width: w, FluxTop: ft, FluxBottom: fb}
}

// vecsEqual compares two vectors bit for bit.
func vecsEqual(t *testing.T, what string, a, b mat.Vec) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d]: %v vs %v (not bit-identical)", what, i, a[i], b[i])
		}
	}
}

// resultsBitIdentical asserts every field of two Results matches exactly.
func resultsBitIdentical(t *testing.T, a, b *Result) {
	t.Helper()
	if a.TerminalResidual != b.TerminalResidual {
		t.Fatalf("terminal residual %v vs %v", a.TerminalResidual, b.TerminalResidual)
	}
	vecsEqual(t, "Z", a.Z, b.Z)
	if len(a.Channels) != len(b.Channels) {
		t.Fatalf("channel count %d vs %d", len(a.Channels), len(b.Channels))
	}
	for k := range a.Channels {
		vecsEqual(t, fmt.Sprintf("ch%d.T1", k), a.Channels[k].T1, b.Channels[k].T1)
		vecsEqual(t, fmt.Sprintf("ch%d.T2", k), a.Channels[k].T2, b.Channels[k].T2)
		vecsEqual(t, fmt.Sprintf("ch%d.Q1", k), a.Channels[k].Q1, b.Channels[k].Q1)
		vecsEqual(t, fmt.Sprintf("ch%d.Q2", k), a.Channels[k].Q2, b.Channels[k].Q2)
		vecsEqual(t, fmt.Sprintf("ch%d.TC", k), a.Channels[k].TC, b.Channels[k].TC)
	}
}

// The core determinism contract of the transition cache: a warm evaluator
// (after solving unrelated designs that filled the cache) returns the exact
// floats a fresh Model.Solve produces.
func TestEvaluatorWarmBitIdenticalToFreshSolve(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(41))
	target := []Channel{
		testChannel(t, p, rng, 6, 4),
		testChannel(t, p, rng, 5, 3),
	}
	unrelated := [][]Channel{
		{testChannel(t, p, rng, 4, 2), testChannel(t, p, rng, 3, 5)},
		{testChannel(t, p, rng, 7, 1), testChannel(t, p, rng, 2, 2)},
	}

	fresh, err := (&Model{Params: p, Channels: target}).Solve()
	if err != nil {
		t.Fatal(err)
	}

	ev := NewEvaluator(p)
	for _, chs := range unrelated {
		if _, err := ev.Solve(chs); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := ev.Solve(target)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, fresh, warm)

	// A second warm solve of the same design must be served mostly from
	// cache and stay identical.
	before := ev.Stats()
	again, err := ev.Solve(target)
	if err != nil {
		t.Fatal(err)
	}
	after := ev.Stats()
	resultsBitIdentical(t, fresh, again)
	if after.TransitionMisses != before.TransitionMisses {
		t.Fatalf("repeat solve missed the cache: %d -> %d misses",
			before.TransitionMisses, after.TransitionMisses)
	}
	if after.TransitionHits <= before.TransitionHits {
		t.Fatal("repeat solve recorded no cache hits")
	}
}

// Same contract for the eliminated 4-state form.
func TestEvaluatorWarmBitIdenticalEliminated(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(43))
	target := testChannel(t, p, rng, 6, 5)

	m := &Model{Params: p, Channels: []Channel{target}}
	fresh, err := m.SolveEliminated()
	if err != nil {
		t.Fatal(err)
	}

	ev := NewEvaluator(p)
	for i := 0; i < 3; i++ {
		if _, err := ev.SolveEliminated(testChannel(t, p, rng, 5, 3)); err != nil {
			t.Fatal(err)
		}
	}
	// Mixing state forms in one session must not disturb either.
	if _, err := ev.Solve([]Channel{testChannel(t, p, rng, 3, 3)}); err != nil {
		t.Fatal(err)
	}
	warm, err := ev.SolveEliminated(target)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, fresh, warm)
}

// A single-segment width perturbation (the finite-difference pattern) must
// reuse the untouched pieces: the second solve's misses are far fewer than
// the first solve's.
func TestEvaluatorGradientReusesPieces(t *testing.T) {
	p := DefaultParams()
	const segs = 16
	prof, err := microchannel.NewLinear(45e-6, 20e-6, p.Length, segs)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewUniformFlux(arealToLinear(p, 120), p.Length)
	if err != nil {
		t.Fatal(err)
	}
	ch := Channel{Width: prof, FluxTop: ft, FluxBottom: ft}

	ev := NewEvaluator(p)
	if _, err := ev.SolveEliminated(ch); err != nil {
		t.Fatal(err)
	}
	base := ev.Stats()

	perturbed := prof.Clone()
	perturbed.SetWidth(segs/2, perturbed.Width(segs/2)+1e-9)
	if _, err := ev.SolveEliminated(Channel{Width: perturbed, FluxTop: ft, FluxBottom: ft}); err != nil {
		t.Fatal(err)
	}
	after := ev.Stats()

	newMisses := after.TransitionMisses - base.TransitionMisses
	if newMisses == 0 {
		t.Fatal("perturbed solve hit everywhere; key must include the width")
	}
	// Only the pieces overlapping the perturbed segment may miss — a small
	// fraction of the first solve's misses.
	if newMisses*4 > base.TransitionMisses {
		t.Fatalf("perturbed solve recomputed %d of %d pieces; expected piecewise reuse",
			newMisses, base.TransitionMisses)
	}
}

// Flushing the cache (bounded memory) must never change results.
func TestEvaluatorFlushKeepsDeterminism(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(47))
	ch := testChannel(t, p, rng, 4, 3)

	ev := NewEvaluator(p)
	first, err := ev.SolveEliminated(ch)
	if err != nil {
		t.Fatal(err)
	}
	ev.cache = make(map[string]*pieceEntry) // simulate the bound tripping
	second, err := ev.SolveEliminated(ch)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, first, second)
}

// One evaluator per goroutine is the concurrency contract of the batch
// engine: under -race, concurrent sessions over shared immutable models
// must be clean and agree with a serial fresh solve.
func TestEvaluatorPerWorkerRace(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(53))
	const designs = 6
	chans := make([][]Channel, designs)
	want := make([]*Result, designs)
	for i := range chans {
		chans[i] = []Channel{testChannel(t, p, rng, 4, 3)}
		r, err := (&Model{Params: p, Channels: chans[i]}).Solve()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := NewEvaluator(p) // per-goroutine session, no locking
			for i := 0; i < designs; i++ {
				idx := (i + w) % designs
				got, err := ev.Solve(chans[idx])
				if err != nil {
					errs <- err
					return
				}
				for j := range got.Z {
					if got.Channels[0].T1[j] != want[idx].Channels[0].T1[j] {
						errs <- fmt.Errorf("worker %d design %d: T1[%d] diverged", w, idx, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// SolveChannels picks the eliminated form for single columns and the
// coupled form otherwise.
func TestEvaluatorSolveChannelsPolicy(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(59))
	single := []Channel{testChannel(t, p, rng, 3, 2)}
	double := []Channel{testChannel(t, p, rng, 3, 2), testChannel(t, p, rng, 2, 2)}

	ev := NewEvaluator(p)
	got1, err := ev.SolveChannels(single)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := (&Model{Params: p, Channels: single}).SolveEliminated()
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, want1, got1)

	got2, err := ev.SolveChannels(double)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := (&Model{Params: p, Channels: double}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, want2, got2)
}

// Invalid models keep failing with the model's validation errors.
func TestEvaluatorValidates(t *testing.T) {
	p := DefaultParams()
	ev := NewEvaluator(p)
	if _, err := ev.Solve(nil); err == nil {
		t.Fatal("empty channel list not rejected")
	}
	if _, err := ev.Solve([]Channel{{}}); err == nil {
		t.Fatal("nil width/flux not rejected")
	}
}
