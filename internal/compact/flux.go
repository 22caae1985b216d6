package compact

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Flux is a piecewise-constant linear heat-flux density q̂(z) in W/m
// applied to one active layer of one modeled column (already scaled by the
// cluster footprint width). Segment i of length Length/len(values) carries
// values[i].
type Flux struct {
	values []float64
	length float64
	cum    []float64 // cumulative integral at segment boundaries
}

// NewFlux builds a flux profile from per-segment linear densities (W/m).
// Negative values are permitted (local cooling elements), but NaN/Inf are
// rejected.
func NewFlux(values []float64, length float64) (*Flux, error) {
	if err := CheckFlux(values, length); err != nil {
		return nil, err
	}
	cp := make([]float64, len(values))
	copy(cp, values)
	f := &Flux{values: cp, length: length}
	f.cum = make([]float64, len(cp)+1)
	seg := length / float64(len(cp))
	for i, v := range cp {
		f.cum[i+1] = f.cum[i] + v*seg
	}
	return f, nil
}

// CheckFlux reports the error NewFlux returns for values over length,
// without building the profile.
func CheckFlux(values []float64, length float64) error {
	if len(values) == 0 {
		return fmt.Errorf("compact: empty flux list")
	}
	if err := units.CheckPositive("flux profile length", length); err != nil {
		return err
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return units.CheckFinite(fmt.Sprintf("flux[%d]", i), v)
		}
	}
	return nil
}

// NewUniformFlux builds a single-segment constant flux profile.
func NewUniformFlux(value, length float64) (*Flux, error) {
	return NewFlux([]float64{value}, length)
}

// Segments returns the number of piecewise-constant segments.
func (f *Flux) Segments() int { return len(f.values) }

// Length returns the profile length.
func (f *Flux) Length() float64 { return f.length }

// Values returns a copy of the per-segment flux densities.
func (f *Flux) Values() []float64 {
	cp := make([]float64, len(f.values))
	copy(cp, f.values)
	return cp
}

// At returns the flux density at position z; boundaries belong to the
// downstream segment, and positions are clamped to [0, Length].
func (f *Flux) At(z float64) float64 {
	if z <= 0 {
		return f.values[0]
	}
	n := len(f.values)
	idx := int(z / f.length * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return f.values[idx]
}

// CumulativeTo returns ∫₀ᶻ q̂ dz′ in W, clamping z to [0, Length].
func (f *Flux) CumulativeTo(z float64) float64 {
	if z <= 0 {
		return 0
	}
	if z >= f.length {
		return f.cum[len(f.cum)-1]
	}
	n := len(f.values)
	seg := f.length / float64(n)
	idx := int(z / seg)
	if idx >= n {
		idx = n - 1
	}
	return f.cum[idx] + f.values[idx]*(z-float64(idx)*seg)
}

// Total returns the integral of the flux over the whole length in W.
func (f *Flux) Total() float64 { return f.cum[len(f.cum)-1] }

// Boundaries returns the n+1 segment boundary positions.
func (f *Flux) Boundaries() []float64 {
	n := len(f.values)
	b := make([]float64, n+1)
	seg := f.length / float64(n)
	for i := 0; i <= n; i++ {
		b[i] = float64(i) * seg
	}
	b[n] = f.length
	return b
}

// Scale returns a new flux profile with every value multiplied by s.
func (f *Flux) Scale(s float64) *Flux {
	vals := f.Values()
	for i := range vals {
		vals[i] *= s
	}
	out, err := NewFlux(vals, f.length)
	if err != nil {
		// Scaling a valid profile by a finite factor cannot fail.
		panic(fmt.Sprintf("compact: Flux.Scale: %v", err))
	}
	return out
}
