package power

import (
	"math"
	"strings"
	"testing"

	"repro/internal/compact"
)

func mkLoads(t *testing.T, vals ...float64) []PhaseLoad {
	t.Helper()
	out := make([]PhaseLoad, len(vals))
	for k, v := range vals {
		f, err := compact.NewUniformFlux(v, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = PhaseLoad{Top: f, Bottom: f}
	}
	return out
}

func TestTraceValidate(t *testing.T) {
	var nilTr *Trace
	if err := nilTr.Validate(); err == nil {
		t.Error("nil trace must fail")
	}
	if err := (&Trace{}).Validate(); err == nil {
		t.Error("empty trace must fail")
	}
	ok := &Trace{Phases: []Phase{{Duration: 1, Loads: mkLoads(t, 100)}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Trace{Phases: []Phase{
		{Duration: 1, Loads: mkLoads(t, 100)},
		{Duration: 1, Loads: mkLoads(t, 100, 200)},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("channel-count mismatch must fail")
	}
	neg := &Trace{Phases: []Phase{{Duration: -1, Loads: mkLoads(t, 100)}}}
	if err := neg.Validate(); err == nil {
		t.Error("negative duration must fail")
	}
	hole := &Trace{Phases: []Phase{{Duration: 1, Loads: []PhaseLoad{{}}}}}
	if err := hole.Validate(); err == nil {
		t.Error("nil flux must fail")
	}
}

func TestTracePhaseAt(t *testing.T) {
	tr := &Trace{Phases: []Phase{
		{Duration: 1, Loads: mkLoads(t, 10)},
		{Duration: 2, Loads: mkLoads(t, 20)},
	}}
	if tr.Duration() != 3 {
		t.Fatalf("duration %v", tr.Duration())
	}
	cases := []struct {
		t    float64
		want int
	}{{-1, 0}, {0, 0}, {0.99, 0}, {1, 1}, {2.9, 1}, {5, 1}}
	for _, c := range cases {
		if i, _ := tr.PhaseAt(c.t); i != c.want {
			t.Errorf("hold PhaseAt(%v) = %d, want %d", c.t, i, c.want)
		}
	}
	tr.Periodic = true
	periodic := []struct {
		t    float64
		want int
	}{{3, 0}, {4.5, 1}, {6.2, 0}, {-0.5, 1}}
	for _, c := range periodic {
		if i, _ := tr.PhaseAt(c.t); i != c.want {
			t.Errorf("periodic PhaseAt(%v) = %d, want %d", c.t, i, c.want)
		}
	}
	if got := tr.LoadsAt(1.5)[0].Top.At(0); got != 20 {
		t.Fatalf("LoadsAt(1.5) = %v, want 20", got)
	}
	if tr.Channels() != 1 {
		t.Fatal("channels")
	}
}

func TestTraceMeanLoads(t *testing.T) {
	tr := &Trace{Phases: []Phase{
		{Duration: 1, Loads: mkLoads(t, 100)},
		{Duration: 3, Loads: mkLoads(t, 20)},
	}}
	mean, err := tr.MeanLoads()
	if err != nil {
		t.Fatal(err)
	}
	want := (1*100 + 3*20) / 4.0
	if got := mean[0].Top.At(0.005); math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean flux %v, want %v", got, want)
	}

	// Mixed segmentations: the mean samples the finest one.
	seg, err := compact.NewFlux([]float64{0, 200}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	tr = &Trace{Phases: []Phase{
		{Duration: 1, Loads: mkLoads(t, 100)},
		{Duration: 1, Loads: []PhaseLoad{{Top: seg, Bottom: seg}}},
	}}
	mean, err = tr.MeanLoads()
	if err != nil {
		t.Fatal(err)
	}
	if mean[0].Top.Segments() != 2 {
		t.Fatalf("mean segments %d, want 2", mean[0].Top.Segments())
	}
	if got := mean[0].Top.At(0.001); math.Abs(got-50) > 1e-12 {
		t.Fatalf("first-half mean %v, want 50", got)
	}
	if got := mean[0].Top.At(0.009); math.Abs(got-150) > 1e-12 {
		t.Fatalf("second-half mean %v, want 150", got)
	}
}

func TestDutyCycleTrace(t *testing.T) {
	loads := mkLoads(t, 100, 40)
	tr, err := DutyCycleTrace(loads, 0.02, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Periodic || len(tr.Phases) != 2 {
		t.Fatal("shape")
	}
	if got := tr.LoadsAt(0.005)[0].Top.At(0); got != 100 {
		t.Fatalf("on phase %v", got)
	}
	if got := tr.LoadsAt(0.015)[0].Top.At(0); math.Abs(got-20) > 1e-12 {
		t.Fatalf("idle phase %v, want 20", got)
	}
	// Wraps into the second period.
	if got := tr.LoadsAt(0.021)[1].Top.At(0); got != 40 {
		t.Fatalf("second period %v, want 40", got)
	}

	if _, err := DutyCycleTrace(loads, 0, 0.5, 0.2); err == nil {
		t.Error("zero period must fail")
	}
	if _, err := DutyCycleTrace(loads, 0.02, 1.5, 0.2); err == nil {
		t.Error("on-fraction > 1 must fail")
	}
	if _, err := DutyCycleTrace(loads, 0.02, 0.5, -1); err == nil {
		t.Error("negative idle scale must fail")
	}
}

// A scale that overflows a load is an error naming the channel, not a
// panic, and so is a duty cycle's overflowing idle scale.
func TestScaleLoadsOverflow(t *testing.T) {
	loads := mkLoads(t, 50, 50)
	if _, err := ScaleLoads(loads, 1e308); err == nil ||
		!strings.Contains(err.Error(), "channel 0 top") || !strings.Contains(err.Error(), "Inf") {
		t.Fatalf("overflowing scale: got %v", err)
	}
	if _, err := DutyCycleTrace(loads, 0.02, 0.5, 1e308); err == nil ||
		!strings.Contains(err.Error(), "idle phase") {
		t.Fatalf("overflowing idle scale: got %v", err)
	}
}

func TestConstantTraceAndScale(t *testing.T) {
	loads := mkLoads(t, 100)
	tr, err := ConstantTrace(loads, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration() != 0.1 || tr.Channels() != 1 {
		t.Fatal("shape")
	}
	scaled, err := ScaleLoads(loads, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := scaled[0].Bottom.At(0); got != 25 {
		t.Fatalf("scaled %v, want 25", got)
	}
	if _, err := ConstantTrace(nil, 1); err == nil {
		t.Error("empty loads must fail")
	}
}
