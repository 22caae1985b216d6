package power

import (
	"fmt"
	"math"

	"repro/internal/compact"
	"repro/internal/units"
)

// PhaseLoad is the heat input of one channel column during one phase of a
// trace: per-unit-length fluxes for the two active layers, cluster scaled
// like control.ChannelLoad.
type PhaseLoad struct {
	Top, Bottom *compact.Flux
}

// Phase is one dwell of a power trace: every channel column holds the
// given load for Duration seconds.
type Phase struct {
	// Duration is the dwell time in seconds.
	Duration float64
	// Loads carries one entry per channel column.
	Loads []PhaseLoad
}

// Trace is a time-varying per-channel power schedule — the workload
// description of runtime (cyber-physical) thermal-management experiments.
// It generalizes the paper's static heat-flux maps to phase schedules:
// MPSoC epochs, duty cycles, or arbitrary trace tables.
type Trace struct {
	// Phases play in order.
	Phases []Phase
	// Periodic wraps time around the total duration; false holds the last
	// phase forever once the schedule is exhausted.
	Periodic bool
}

// Validate reports the first inconsistency: traces need at least one
// phase, positive dwell times, and a consistent channel count with
// non-nil fluxes throughout.
func (tr *Trace) Validate() error {
	if tr == nil || len(tr.Phases) == 0 {
		return fmt.Errorf("power: trace has no phases")
	}
	n := len(tr.Phases[0].Loads)
	if n == 0 {
		return fmt.Errorf("power: trace phase 0 has no channel loads")
	}
	for i, ph := range tr.Phases {
		if err := CheckPhaseDuration(i, ph.Duration); err != nil {
			return err
		}
		if len(ph.Loads) != n {
			return fmt.Errorf("power: trace phase %d has %d channels, phase 0 has %d",
				i, len(ph.Loads), n)
		}
		for k, ld := range ph.Loads {
			if ld.Top == nil || ld.Bottom == nil {
				return fmt.Errorf("power: trace phase %d channel %d has nil flux", i, k)
			}
		}
	}
	return nil
}

// CheckPhaseDuration is Validate's check of phase i's dwell time in
// seconds, for callers that check a schedule before building its loads.
func CheckPhaseDuration(i int, d float64) error {
	if err := units.CheckPositive(fmt.Sprintf("trace phase %d duration", i), d); err != nil {
		return fmt.Errorf("power: %w", err)
	}
	return nil
}

// Channels returns the channel-column count of the trace.
func (tr *Trace) Channels() int {
	if len(tr.Phases) == 0 {
		return 0
	}
	return len(tr.Phases[0].Loads)
}

// Duration returns the total schedule length (one period when Periodic).
func (tr *Trace) Duration() float64 {
	var d float64
	for _, ph := range tr.Phases {
		d += ph.Duration
	}
	return d
}

// PhaseAt resolves the phase active at time t. Negative times clamp to
// the first phase; times past the end wrap (Periodic) or hold the last
// phase.
func (tr *Trace) PhaseAt(t float64) (int, *Phase) {
	total := tr.Duration()
	if tr.Periodic && total > 0 {
		t = math.Mod(t, total)
		if t < 0 {
			t += total
		}
	}
	if t < 0 {
		return 0, &tr.Phases[0]
	}
	var acc float64
	for i := range tr.Phases {
		acc += tr.Phases[i].Duration
		if t < acc {
			return i, &tr.Phases[i]
		}
	}
	last := len(tr.Phases) - 1
	return last, &tr.Phases[last]
}

// LoadsAt returns the per-channel loads active at time t.
func (tr *Trace) LoadsAt(t float64) []PhaseLoad {
	_, ph := tr.PhaseAt(t)
	return ph.Loads
}

// MeanLoads returns the duration-weighted time-average load per channel —
// the heat map a static design-time optimization of the trace would use.
func (tr *Trace) MeanLoads() ([]PhaseLoad, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	total := tr.Duration()
	n := tr.Channels()
	out := make([]PhaseLoad, n)
	for k := 0; k < n; k++ {
		top, err := meanFlux(tr.Phases, total, k, true)
		if err != nil {
			return nil, err
		}
		bottom, err := meanFlux(tr.Phases, total, k, false)
		if err != nil {
			return nil, err
		}
		out[k] = PhaseLoad{Top: top, Bottom: bottom}
	}
	return out, nil
}

// meanFlux averages one channel's layer flux across phases. Phases may
// use different segment counts; the average is sampled on the finest
// segmentation among them.
func meanFlux(phases []Phase, total float64, ch int, top bool) (*compact.Flux, error) {
	pick := func(ph *Phase) *compact.Flux {
		if top {
			return ph.Loads[ch].Top
		}
		return ph.Loads[ch].Bottom
	}
	segs := 1
	for i := range phases {
		if s := pick(&phases[i]).Segments(); s > segs {
			segs = s
		}
	}
	length := pick(&phases[0]).Length()
	vals := make([]float64, segs)
	for i := range phases {
		f := pick(&phases[i])
		wgt := phases[i].Duration / total
		for s := 0; s < segs; s++ {
			z := (float64(s) + 0.5) * length / float64(segs)
			vals[s] += wgt * f.At(z)
		}
	}
	return compact.NewFlux(vals, length)
}

// ConstantTrace wraps a static per-channel load set into a single-phase
// trace of the given duration.
func ConstantTrace(loads []PhaseLoad, duration float64) (*Trace, error) {
	tr := &Trace{Phases: []Phase{{Duration: duration, Loads: loads}}}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// DutyCycleTrace builds the classic periodic two-phase workload: the base
// loads at full power for onFraction of each period, then scaled by
// idleScale for the rest — processor bursts against an idle floor.
func DutyCycleTrace(loads []PhaseLoad, period, onFraction, idleScale float64) (*Trace, error) {
	if err := units.CheckPositive("duty-cycle period", period); err != nil {
		return nil, fmt.Errorf("power: %w", err)
	}
	if !(onFraction > 0 && onFraction < 1) {
		return nil, fmt.Errorf("power: duty-cycle on-fraction %g outside (0, 1)", onFraction)
	}
	if idleScale < 0 {
		return nil, fmt.Errorf("power: negative idle scale %g", idleScale)
	}
	for k, ld := range loads {
		if ld.Top == nil || ld.Bottom == nil {
			return nil, fmt.Errorf("power: duty-cycle channel %d has nil flux", k)
		}
	}
	idle, err := ScaleLoads(loads, idleScale)
	if err != nil {
		return nil, fmt.Errorf("power: duty-cycle idle phase: %w", err)
	}
	tr := &Trace{
		Phases: []Phase{
			{Duration: period * onFraction, Loads: loads},
			{Duration: period * (1 - onFraction), Loads: idle},
		},
		Periodic: true,
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ScaleLoads returns a copy of the loads with both layers' fluxes scaled
// — the building block for phase schedules expressed as multipliers of a
// base map. It fails when a scaled flux overflows.
func ScaleLoads(loads []PhaseLoad, s float64) ([]PhaseLoad, error) {
	out := make([]PhaseLoad, len(loads))
	for k, ld := range loads {
		top, err := ld.Top.Scale(s)
		if err != nil {
			return nil, fmt.Errorf("power: channel %d top: %w", k, err)
		}
		bottom, err := ld.Bottom.Scale(s)
		if err != nil {
			return nil, fmt.Errorf("power: channel %d bottom: %w", k, err)
		}
		out[k] = PhaseLoad{Top: top, Bottom: bottom}
	}
	return out, nil
}
