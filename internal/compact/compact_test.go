package compact

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/convection"
	"repro/internal/microchannel"
	"repro/internal/units"
)

// arealToLinear converts a per-layer areal heat flux in W/cm² into the
// per-unit-length flux (W/m) of one modeled cluster.
func arealToLinear(p Params, wcm2 float64) float64 {
	return units.WattsPerCm2(wcm2) * p.ClusterWidth()
}

// singleChannelModel builds a 1-channel model with uniform width and
// uniform per-layer areal flux (W/cm²).
func singleChannelModel(t testing.TB, width, fluxTop, fluxBottom float64) *Model {
	t.Helper()
	p := DefaultParams()
	w, err := microchannel.NewUniform(width, p.Length, 1)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewUniformFlux(arealToLinear(p, fluxTop), p.Length)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := NewUniformFlux(arealToLinear(p, fluxBottom), p.Length)
	if err != nil {
		t.Fatal(err)
	}
	return &Model{
		Params:   p,
		Channels: []Channel{{Width: w, FluxTop: ft, FluxBottom: fb}},
	}
}

func TestDefaultParamsMatchTableI(t *testing.T) {
	p := DefaultParams()
	if p.SiliconConductivity != 130 {
		t.Errorf("kSi = %v", p.SiliconConductivity)
	}
	if math.Abs(p.Pitch-100e-6) > 1e-18 {
		t.Errorf("W = %v", p.Pitch)
	}
	if math.Abs(p.SlabHeight-50e-6) > 1e-18 {
		t.Errorf("HSi = %v", p.SlabHeight)
	}
	if math.Abs(p.ChannelHeight-100e-6) > 1e-18 {
		t.Errorf("HC = %v", p.ChannelHeight)
	}
	if p.InletTemp != 300 {
		t.Errorf("TCin = %v", p.InletTemp)
	}
	// cv from Table I.
	if cv := p.Coolant.VolumetricHeatCapacity(); math.Abs(cv-4.17e6)/4.17e6 > 1e-12 {
		t.Errorf("cv = %v", cv)
	}
	// Cluster flow: 4.8 ml/min per modeled cluster of 10.
	if got := units.ToMilliLitersPerMinute(p.ClusterFlowRate()); math.Abs(got-4.8) > 1e-9 {
		t.Errorf("cluster flow = %v ml/min, want 4.8", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	p.Pitch = 0
	if err := p.Validate(); err == nil {
		t.Error("zero pitch must fail")
	}
	p = DefaultParams()
	p.ClusterSize = 0
	if err := p.Validate(); err == nil {
		t.Error("zero cluster must fail")
	}
	p = DefaultParams()
	p.Coolant.Density = -1
	if err := p.Validate(); err == nil {
		t.Error("bad coolant must fail")
	}
}

func TestCoefficientsAt(t *testing.T) {
	p := DefaultParams()
	c, err := p.CoefficientsAt(50e-6, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := float64(p.ClusterSize)
	// ĝl = kSi·(sW)·HSi.
	if want := 130 * s * 100e-6 * 50e-6; math.Abs(c.GL-want)/want > 1e-12 {
		t.Errorf("GL = %v, want %v", c.GL, want)
	}
	// ĝv,Si = kSi·(sW)/HSi.
	if want := 130 * s * 100e-6 / 50e-6; math.Abs(c.GVSi-want)/want > 1e-12 {
		t.Errorf("GVSi = %v, want %v", c.GVSi, want)
	}
	// ĝw = s·kSi·(W−w)/(2HSi+HC).
	if want := s * 130 * 50e-6 / 200e-6; math.Abs(c.GW-want)/want > 1e-12 {
		t.Errorf("GW = %v, want %v", c.GW, want)
	}
	// Series combination is below both members.
	if c.GV >= c.GVSi || c.GV >= c.HLayer {
		t.Errorf("GV = %v must be below GVSi = %v and HLayer = %v", c.GV, c.GVSi, c.HLayer)
	}
	// cv·V̇ for the cluster.
	if want := 4.17e6 * p.ClusterFlowRate(); math.Abs(c.CvV-want)/want > 1e-12 {
		t.Errorf("CvV = %v, want %v", c.CvV, want)
	}
}

func TestCoefficientsNarrowChannelCoolsBetter(t *testing.T) {
	p := DefaultParams()
	cNarrow, err := p.CoefficientsAt(10e-6, 0)
	if err != nil {
		t.Fatal(err)
	}
	cWide, err := p.CoefficientsAt(50e-6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cNarrow.GV <= cWide.GV {
		t.Fatalf("ĝv must grow as the channel narrows: %v vs %v", cNarrow.GV, cWide.GV)
	}
	// Narrower channel also means thicker walls → larger ĝw.
	if cNarrow.GW <= cWide.GW {
		t.Fatalf("ĝw must grow as the channel narrows")
	}
}

func TestCoefficientsValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := p.CoefficientsAt(0, 0); err == nil {
		t.Error("zero width must fail")
	}
	if _, err := p.CoefficientsAt(100e-6, 0); err == nil {
		t.Error("width = pitch must fail")
	}
}

func TestFluxBasics(t *testing.T) {
	f, err := NewFlux([]float64{100, 300}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if f.Segments() != 2 || f.Length() != 0.01 {
		t.Error("accessors")
	}
	if f.At(0.001) != 100 || f.At(0.006) != 300 || f.At(0.005) != 300 {
		t.Error("At wrong")
	}
	if got := f.CumulativeTo(0.005); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Cumulative(0.005) = %v, want 0.5", got)
	}
	if got := f.CumulativeTo(0.0075); math.Abs(got-(0.5+0.75)) > 1e-12 {
		t.Errorf("Cumulative(0.0075) = %v", got)
	}
	if got := f.Total(); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Total = %v, want 2", got)
	}
	if f.CumulativeTo(-1) != 0 || f.CumulativeTo(1) != f.Total() {
		t.Error("cumulative clamping")
	}
	if len(f.Boundaries()) != 3 {
		t.Error("boundaries")
	}
	g, err := f.Scale(2)
	if err != nil || g.Total() != 4 {
		t.Errorf("Scale: %v", err)
	}
	if _, err := f.Scale(1e308); err == nil || !strings.Contains(err.Error(), "Flux.Scale") {
		t.Errorf("overflowing Scale: got %v, want an error", err)
	}
	if vals := f.Values(); vals[0] != 100 {
		t.Error("Values")
	}
}

func TestFluxValidation(t *testing.T) {
	if _, err := NewFlux(nil, 0.01); err == nil {
		t.Error("empty flux must fail")
	}
	if _, err := NewFlux([]float64{1}, 0); err == nil {
		t.Error("zero length must fail")
	}
	if _, err := NewFlux([]float64{math.NaN()}, 0.01); err == nil {
		t.Error("NaN flux must fail")
	}
	// Negative flux is allowed (cooling elements).
	if _, err := NewFlux([]float64{-5}, 0.01); err != nil {
		t.Error("negative flux should be allowed")
	}
}

func TestModelValidate(t *testing.T) {
	m := singleChannelModel(t, 50e-6, 50, 50)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *m
	bad.Channels = nil
	if err := bad.Validate(); err == nil {
		t.Error("no channels must fail")
	}
	bad = *m
	w, _ := microchannel.NewUniform(20e-6, 0.02, 1) // wrong length
	bad.Channels = []Channel{{Width: w, FluxTop: m.Channels[0].FluxTop, FluxBottom: m.Channels[0].FluxBottom}}
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch must fail")
	}
	bad = *m
	bad.Channels = []Channel{{Width: nil, FluxTop: m.Channels[0].FluxTop, FluxBottom: m.Channels[0].FluxBottom}}
	if err := bad.Validate(); err == nil {
		t.Error("nil width must fail")
	}
	bad = *m
	wWide, _ := microchannel.NewUniform(100e-6, 0.01, 1) // = pitch
	bad.Channels = []Channel{{Width: wWide, FluxTop: m.Channels[0].FluxTop, FluxBottom: m.Channels[0].FluxBottom}}
	if err := bad.Validate(); err == nil {
		t.Error("width >= pitch must fail")
	}
}

// Energy conservation: with adiabatic outer surfaces, the total heat
// injected must exit through the coolant.
func TestEnergyConservationUniform(t *testing.T) {
	m := singleChannelModel(t, 50e-6, 50, 50)
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Params.CoefficientsAt(50e-6, 0)
	if err != nil {
		t.Fatal(err)
	}
	injected := m.Channels[0].FluxTop.Total() + m.Channels[0].FluxBottom.Total()
	absorbed := res.TotalHeatAbsorbed(c.CvV)
	if math.Abs(absorbed-injected)/injected > 1e-6 {
		t.Fatalf("energy balance: injected %v W, absorbed %v W", injected, absorbed)
	}
}

// Symmetric inputs must give identical layer temperatures.
func TestLayerSymmetry(t *testing.T) {
	m := singleChannelModel(t, 30e-6, 80, 80)
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ch := res.Channels[0]
	for i := range res.Z {
		if math.Abs(ch.T1[i]-ch.T2[i]) > 1e-6 {
			t.Fatalf("symmetry broken at i=%d: %v vs %v", i, ch.T1[i], ch.T2[i])
		}
	}
}

// The coolant temperature must rise monotonically when all fluxes are
// positive, and end near TCin + Q/(cv·V̇).
func TestCoolantMonotoneRise(t *testing.T) {
	m := singleChannelModel(t, 50e-6, 50, 50)
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	tc := res.Channels[0].TC
	for i := 0; i+1 < len(tc); i++ {
		if tc[i+1] < tc[i]-1e-9 {
			t.Fatalf("coolant temperature fell at i=%d", i)
		}
	}
	if tc[0] != 300 {
		t.Fatalf("TC(0) = %v, want 300", tc[0])
	}
	c, _ := m.Params.CoefficientsAt(50e-6, 0)
	injected := m.Channels[0].FluxTop.Total() + m.Channels[0].FluxBottom.Total()
	wantRise := injected / c.CvV
	if got := res.CoolantRise(0); math.Abs(got-wantRise)/wantRise > 1e-6 {
		t.Fatalf("coolant rise %v, want %v", got, wantRise)
	}
}

// Test A sanity: uniform 50 W/cm² on both layers, uniform max width. The
// gradient must be close to the coolant rise (≈30 K) — the paper reports
// 28 °C for this case.
func TestTestAGradientMagnitude(t *testing.T) {
	m := singleChannelModel(t, 50e-6, 50, 50)
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	g := res.Gradient()
	if g < 24 || g > 33 {
		t.Fatalf("Test A uniform-width gradient = %.1f K, want ≈28 K (paper Fig. 5a)", g)
	}
	// Peak silicon temperature must exceed the coolant outlet temperature.
	if res.PeakTemperature() <= res.Channels[0].TC[len(res.Z)-1] {
		t.Fatal("peak silicon temp must exceed coolant outlet temp")
	}
}

// Min-width and max-width uniform designs must produce nearly the same
// gradient (paper Sec. V-A: "very similar thermal gradients").
func TestUniformMinMaxGradientsSimilar(t *testing.T) {
	gMin := mustGradient(t, singleChannelModel(t, 10e-6, 50, 50))
	gMax := mustGradient(t, singleChannelModel(t, 50e-6, 50, 50))
	if math.Abs(gMin-gMax) > 0.15*gMax {
		t.Fatalf("min/max width gradients differ too much: %v vs %v", gMin, gMax)
	}
}

func mustGradient(t *testing.T, m *Model) float64 {
	t.Helper()
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return res.Gradient()
}

// The min-width design must have a lower peak temperature than max-width
// (better cooling efficiency), even though gradients are similar.
func TestMinWidthLowerPeak(t *testing.T) {
	resMin, err := singleChannelModel(t, 10e-6, 50, 50).Solve()
	if err != nil {
		t.Fatal(err)
	}
	resMax, err := singleChannelModel(t, 50e-6, 50, 50).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if resMin.PeakTemperature() >= resMax.PeakTemperature() {
		t.Fatalf("min-width peak %v must be below max-width peak %v",
			resMin.PeakTemperature(), resMax.PeakTemperature())
	}
}

// A modulated profile narrowing toward the outlet must reduce the gradient
// relative to any uniform profile (the paper's core mechanism).
func TestModulationReducesGradient(t *testing.T) {
	p := DefaultParams()
	uniform := mustGradient(t, singleChannelModel(t, 50e-6, 50, 50))

	w, err := microchannel.NewLinear(50e-6, 10e-6, p.Length, 20)
	if err != nil {
		t.Fatal(err)
	}
	ft, _ := NewUniformFlux(arealToLinear(p, 50), p.Length)
	m := &Model{Params: p, Channels: []Channel{{Width: w, FluxTop: ft, FluxBottom: ft}}}
	modulated := mustGradient(t, m)

	if modulated >= uniform {
		t.Fatalf("linear modulation gradient %v must beat uniform %v", modulated, uniform)
	}
	reduction := (uniform - modulated) / uniform
	if reduction < 0.10 {
		t.Fatalf("modulation reduction only %.1f%%, expected >10%%", reduction*100)
	}
	t.Logf("uniform %.2f K → linear modulation %.2f K (−%.0f%%)", uniform, modulated, reduction*100)
}

// The 4-state eliminated model (paper Eq. 3) must agree with the 5-state
// model on uniform and segmented inputs.
func TestEliminatedMatchesFullModel(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		segW := 1 + rng.Intn(6)
		segF := 1 + rng.Intn(8)
		ws := make([]float64, segW)
		for i := range ws {
			ws[i] = 10e-6 + rng.Float64()*40e-6
		}
		w, err := microchannel.NewProfile(ws, p.Length)
		if err != nil {
			t.Fatal(err)
		}
		f1 := make([]float64, segF)
		f2 := make([]float64, segF)
		for i := range f1 {
			f1[i] = arealToLinear(p, 50+rng.Float64()*200)
			f2[i] = arealToLinear(p, 50+rng.Float64()*200)
		}
		ft, err := NewFlux(f1, p.Length)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := NewFlux(f2, p.Length)
		if err != nil {
			t.Fatal(err)
		}
		m := &Model{Params: p, Channels: []Channel{{Width: w, FluxTop: ft, FluxBottom: fb}}}

		full, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d full: %v", trial, err)
		}
		elim, err := m.SolveEliminated()
		if err != nil {
			t.Fatalf("trial %d eliminated: %v", trial, err)
		}
		if math.Abs(full.Gradient()-elim.Gradient()) > 0.02*full.Gradient()+1e-6 {
			t.Fatalf("trial %d: gradients differ: full %v vs eliminated %v",
				trial, full.Gradient(), elim.Gradient())
		}
		// Compare inlet temperatures (shooting parameters).
		dT1 := math.Abs(full.Channels[0].T1[0] - elim.Channels[0].T1[0])
		dT2 := math.Abs(full.Channels[0].T2[0] - elim.Channels[0].T2[0])
		if dT1 > 0.05 || dT2 > 0.05 {
			t.Fatalf("trial %d: inlet temps differ by %v / %v K", trial, dT1, dT2)
		}
	}
}

func TestEliminatedRequiresSingleChannel(t *testing.T) {
	m := singleChannelModel(t, 50e-6, 50, 50)
	m.Channels = append(m.Channels, m.Channels[0])
	if _, err := m.SolveEliminated(); err == nil {
		t.Fatal("eliminated form must reject multi-channel models")
	}
}

// Multi-channel: a hot channel flanked by cold channels must be hotter,
// and energy must balance per column (lateral leakage is small but real,
// so check the aggregate).
func TestMultiChannelHotMiddle(t *testing.T) {
	p := DefaultParams()
	mk := func(flux float64) Channel {
		w, err := microchannel.NewUniform(50e-6, p.Length, 1)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewUniformFlux(arealToLinear(p, flux), p.Length)
		if err != nil {
			t.Fatal(err)
		}
		return Channel{Width: w, FluxTop: f, FluxBottom: f}
	}
	m := &Model{Params: p, Channels: []Channel{mk(20), mk(100), mk(20)}}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Middle channel hotter at every axial position.
	mid := res.Channels[1]
	for i := range res.Z {
		if mid.T1[i] <= res.Channels[0].T1[i] {
			t.Fatalf("middle channel must be hotter at i=%d", i)
		}
	}
	// Aggregate energy balance.
	c, _ := p.CoefficientsAt(50e-6, 0)
	var injected float64
	for _, ch := range m.Channels {
		injected += ch.FluxTop.Total() + ch.FluxBottom.Total()
	}
	absorbed := res.TotalHeatAbsorbed(c.CvV)
	if math.Abs(absorbed-injected)/injected > 1e-6 {
		t.Fatalf("multi-channel energy balance: %v vs %v", absorbed, injected)
	}
	// Symmetric neighbors must match by mirror symmetry.
	for i := range res.Z {
		if math.Abs(res.Channels[0].T1[i]-res.Channels[2].T1[i]) > 1e-6 {
			t.Fatalf("mirror symmetry broken at i=%d", i)
		}
	}
}

// Narrowing only the hot channel must cool it relative to the same stack
// with uniform widths (the per-channel dimension of modulation).
func TestPerChannelModulationCoolsHotspot(t *testing.T) {
	p := DefaultParams()
	build := func(hotWidth float64) *Model {
		mkW := func(width float64) *microchannel.Profile {
			w, err := microchannel.NewUniform(width, p.Length, 1)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		mkF := func(flux float64) *Flux {
			f, err := NewUniformFlux(arealToLinear(p, flux), p.Length)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		return &Model{Params: p, Channels: []Channel{
			{Width: mkW(50e-6), FluxTop: mkF(20), FluxBottom: mkF(20)},
			{Width: mkW(hotWidth), FluxTop: mkF(100), FluxBottom: mkF(100)},
			{Width: mkW(50e-6), FluxTop: mkF(20), FluxBottom: mkF(20)},
		}}
	}
	resUniform, err := build(50e-6).Solve()
	if err != nil {
		t.Fatal(err)
	}
	resNarrow, err := build(15e-6).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if resNarrow.PeakTemperature() >= resUniform.PeakTemperature() {
		t.Fatalf("narrowing the hot channel must lower the peak: %v vs %v",
			resNarrow.PeakTemperature(), resUniform.PeakTemperature())
	}
	if resNarrow.Gradient() >= resUniform.Gradient() {
		t.Fatalf("narrowing the hot channel must lower the gradient: %v vs %v",
			resNarrow.Gradient(), resUniform.Gradient())
	}
}

func TestPressureDrops(t *testing.T) {
	m := singleChannelModel(t, 50e-6, 50, 50)
	dps, err := m.PressureDrops(convection.PaperDarcy)
	if err != nil {
		t.Fatal(err)
	}
	if len(dps) != 1 {
		t.Fatal("one channel expected")
	}
	// Max-width design: must be well below the 10-bar budget.
	if bar := units.ToBar(dps[0]); bar <= 0 || bar > 2 {
		t.Fatalf("max-width ΔP = %v bar", bar)
	}
}

func TestObjectiveQ2PositiveAndSmallerWhenFlat(t *testing.T) {
	p := DefaultParams()
	// Non-uniform flux drives longitudinal heat flow → larger J.
	w, _ := microchannel.NewUniform(50e-6, p.Length, 1)
	hot, err := NewFlux([]float64{arealToLinear(p, 20), arealToLinear(p, 200)}, p.Length)
	if err != nil {
		t.Fatal(err)
	}
	uniformFlux, _ := NewUniformFlux(arealToLinear(p, 110), p.Length)

	mHot := &Model{Params: p, Channels: []Channel{{Width: w, FluxTop: hot, FluxBottom: hot}}}
	mUni := &Model{Params: p, Channels: []Channel{{Width: w, FluxTop: uniformFlux, FluxBottom: uniformFlux}}}

	rHot, err := mHot.Solve()
	if err != nil {
		t.Fatal(err)
	}
	rUni, err := mUni.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if rHot.ObjectiveQ2() <= rUni.ObjectiveQ2() {
		t.Fatalf("hotspot J = %v must exceed uniform J = %v", rHot.ObjectiveQ2(), rUni.ObjectiveQ2())
	}
	if rUni.ObjectiveQ2() < 0 {
		t.Fatal("J must be non-negative")
	}
}

func TestTerminalResidualSmall(t *testing.T) {
	m := singleChannelModel(t, 30e-6, 150, 70)
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Residual heat flow at the outlet should be a negligible fraction of
	// the injected power.
	injected := m.Channels[0].FluxTop.Total() + m.Channels[0].FluxBottom.Total()
	if res.TerminalResidual > 1e-6*injected {
		t.Fatalf("terminal residual %v W vs injected %v W", res.TerminalResidual, injected)
	}
}

func TestMaxAxialGradient(t *testing.T) {
	m := singleChannelModel(t, 50e-6, 50, 50)
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	g := res.MaxAxialGradient()
	// Roughly coolant rise over length: ~30 K / 0.01 m = 3000 K/m.
	if g < 1000 || g > 10000 {
		t.Fatalf("max axial gradient = %v K/m, expected O(3000)", g)
	}
}

// Property-style test: random segmented fluxes and widths always conserve
// energy and keep silicon hotter than the inlet coolant.
func TestRandomModelsPhysicalInvariants(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(3)
		chans := make([]Channel, n)
		var injected float64
		for k := range chans {
			ws := make([]float64, 1+rng.Intn(5))
			for i := range ws {
				ws[i] = 10e-6 + rng.Float64()*40e-6
			}
			w, err := microchannel.NewProfile(ws, p.Length)
			if err != nil {
				t.Fatal(err)
			}
			fv := make([]float64, 1+rng.Intn(6))
			for i := range fv {
				fv[i] = arealToLinear(p, 10+rng.Float64()*240)
			}
			ft, err := NewFlux(fv, p.Length)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := ft.Scale(0.5 + rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			chans[k] = Channel{Width: w, FluxTop: ft, FluxBottom: fb}
			injected += ft.Total() + fb.Total()
		}
		m := &Model{Params: p, Channels: chans}
		res, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c, _ := p.CoefficientsAt(30e-6, 0)
		absorbed := res.TotalHeatAbsorbed(c.CvV)
		if math.Abs(absorbed-injected)/injected > 1e-5 {
			t.Fatalf("trial %d: energy balance %v vs %v", trial, absorbed, injected)
		}
		lo, _ := res.SiliconExtrema()
		if lo < p.InletTemp-1e-6 {
			t.Fatalf("trial %d: silicon colder than inlet coolant: %v", trial, lo)
		}
	}
}
