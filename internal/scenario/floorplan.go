package scenario

import (
	"fmt"
	"math"

	"repro/internal/compact"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/units"
)

// Floorplan describes the scenario's heat sources declaratively, as a
// two-die stack of rectangular functional blocks, instead of
// pre-rasterized per-channel flux lists. The die length along the
// coolant flow is the scenario's channel length (params length_mm, Table
// I default 10 mm); the die width must tile into a whole number of
// channel clusters (pitch_um × cluster_size per modeled column). The
// scenario's "mode" field selects between each block's peak and average
// densities, exactly like the arch presets.
type Floorplan struct {
	// Top and Bottom are the two active dies of the stack.
	Top    Die `json:"top"`
	Bottom Die `json:"bottom"`
	// FluxSegments is the along-flow resolution the power maps are
	// integrated at (slices per channel; zero → 8). It is independent of
	// the width-control discretization in Segments.
	FluxSegments int `json:"flux_segments,omitempty"`
}

// Die is one floorplanned die in engineering units: extents in mm,
// areal power densities in W/cm². Regions not covered by a block
// dissipate the background density.
type Die struct {
	// WidthMM is the die extent across the coolant flow in mm. It must
	// equal a whole number of cluster widths, and both dies of a
	// floorplan must agree on it.
	WidthMM float64 `json:"width_mm"`
	// BackgroundWcm2 and BackgroundAvgWcm2 are the peak and average
	// areal densities of the uncovered die area.
	BackgroundWcm2    float64 `json:"background_wcm2,omitempty"`
	BackgroundAvgWcm2 float64 `json:"background_avg_wcm2,omitempty"`
	// Blocks tile (part of) the die; they must have positive area, stay
	// inside the die, and must not overlap each other.
	Blocks []Block `json:"blocks,omitempty"`
}

// Block is one rectangular functional unit: a core, cache bank,
// accelerator, interconnect or I/O region with its power densities.
type Block struct {
	// Kind classifies the block: "core", "l2", "crossbar", "io",
	// "accel" or "other". It is semantic documentation (generators and
	// tools key realistic densities off it); the thermal model consumes
	// only geometry and density.
	Kind string `json:"kind"`
	// XMM, YMM locate the lower-left corner in mm (x along the coolant
	// flow from the inlet, y across); WMM, HMM are the extents.
	XMM float64 `json:"x_mm"`
	YMM float64 `json:"y_mm"`
	WMM float64 `json:"w_mm"`
	HMM float64 `json:"h_mm"`
	// PeakWcm2 and AvgWcm2 are the block's worst-case and time-averaged
	// areal densities in W/cm². Average must not exceed peak; an absent
	// average means an idle block (0 W/cm²) in average mode.
	PeakWcm2 float64 `json:"peak_wcm2"`
	AvgWcm2  float64 `json:"avg_wcm2,omitempty"`
}

// die converts one scenario die into a validated floorplan.Die with the
// given flow-direction length. Zero-area and overlapping blocks are
// rejected here, with the block index in the error, so a bad floorplan
// fails at parse/validation time instead of surfacing as a confusing
// downstream solve failure.
func (d *Die) die(label string, length float64) (*floorplan.Die, error) {
	out := &floorplan.Die{
		Name:           label,
		LengthX:        length,
		WidthY:         units.Millimeters(d.WidthMM),
		BackgroundPeak: units.WattsPerCm2(d.BackgroundWcm2),
		BackgroundAvg:  units.WattsPerCm2(d.BackgroundAvgWcm2),
	}
	if d.BackgroundWcm2 < 0 || d.BackgroundAvgWcm2 < 0 {
		return nil, fmt.Errorf("scenario: floorplan %s die: negative background density", label)
	}
	if d.BackgroundAvgWcm2 > d.BackgroundWcm2 {
		return nil, fmt.Errorf("scenario: floorplan %s die: background average density %g W/cm² exceeds peak %g W/cm²",
			label, d.BackgroundAvgWcm2, d.BackgroundWcm2)
	}
	for i, b := range d.Blocks {
		kind, err := floorplan.ParseKind(b.Kind)
		if err != nil {
			return nil, fmt.Errorf("scenario: floorplan %s die block %d: %w", label, i, err)
		}
		if b.WMM <= 0 || b.HMM <= 0 {
			return nil, fmt.Errorf("scenario: floorplan %s die block %d (%s): zero or negative area (%g×%g mm)",
				label, i, b.Kind, b.WMM, b.HMM)
		}
		area := units.Millimeters(b.WMM) * units.Millimeters(b.HMM)
		out.Blocks = append(out.Blocks, floorplan.Block{
			Name:      fmt.Sprintf("%s[%d]", b.Kind, i),
			Kind:      kind,
			X:         units.Millimeters(b.XMM),
			Y:         units.Millimeters(b.YMM),
			W:         units.Millimeters(b.WMM),
			H:         units.Millimeters(b.HMM),
			PeakPower: units.WattsPerCm2(b.PeakWcm2) * area,
			AvgPower:  units.WattsPerCm2(b.AvgWcm2) * area,
		})
	}
	// Die.Validate catches the geometric failure modes (blocks exceeding
	// the die, overlapping pairs, average above peak) with the synthetic
	// block names carrying kind and index.
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: floorplan %s die: %w", label, err)
	}
	return out, nil
}

// check runs rasterize's checks against the resolved stack parameters
// and returns the two dies and the channel count (one channel strip per
// cluster width across the dies), without integrating the power maps.
func (fp *Floorplan) check(p compact.Params) (top, bottom *floorplan.Die, n int, err error) {
	if fp.FluxSegments < 0 {
		return nil, nil, 0, fmt.Errorf("scenario: floorplan flux_segments %d < 0", fp.FluxSegments)
	}
	if fp.Top.WidthMM != fp.Bottom.WidthMM {
		return nil, nil, 0, fmt.Errorf("scenario: floorplan die widths differ: top %g mm, bottom %g mm",
			fp.Top.WidthMM, fp.Bottom.WidthMM)
	}
	if top, err = fp.Top.die("top", p.Length); err != nil {
		return nil, nil, 0, err
	}
	if bottom, err = fp.Bottom.die("bottom", p.Length); err != nil {
		return nil, nil, 0, err
	}
	clusterW := p.ClusterWidth()
	widthY := units.Millimeters(fp.Top.WidthMM)
	nf := widthY / clusterW
	n = int(nf + 0.5)
	if n < 1 || math.Abs(float64(n)*clusterW-widthY) > 1e-9*widthY {
		return nil, nil, 0, fmt.Errorf("scenario: floorplan die width %g mm is not a whole number of cluster widths (%g mm each; %g clusters)",
			fp.Top.WidthMM, units.ToMillimeters(clusterW), nf)
	}
	return top, bottom, n, nil
}

// rasterize integrates the floorplan into per-channel W/cm² segment
// lists against the resolved stack parameters: one channel strip per
// cluster width across the dies, FluxSegments slices along the flow,
// exact block-rectangle integration (no sampling error).
func (fp *Floorplan) rasterize(p compact.Params, mode floorplan.Mode) ([]Channel, error) {
	top, bottom, n, err := fp.check(p)
	if err != nil {
		return nil, err
	}
	segs := fp.FluxSegments
	if segs == 0 {
		segs = 8
	}
	clusterW := p.ClusterWidth()
	topFlux, err := power.ChannelFluxes(top, mode, n, segs)
	if err != nil {
		return nil, fmt.Errorf("scenario: floorplan top die: %w", err)
	}
	bottomFlux, err := power.ChannelFluxes(bottom, mode, n, segs)
	if err != nil {
		return nil, fmt.Errorf("scenario: floorplan bottom die: %w", err)
	}
	// Convert the linear densities (W/m, whole-strip) back to the areal
	// W/cm² the Channel lists carry: q̂ = wcm2·1e4·clusterWidth.
	out := make([]Channel, n)
	for k := 0; k < n; k++ {
		out[k] = Channel{
			TopWcm2:    wcm2Values(topFlux[k], clusterW),
			BottomWcm2: wcm2Values(bottomFlux[k], clusterW),
		}
	}
	return out, nil
}

// wcm2Values converts a cluster-scaled linear flux back to areal W/cm².
func wcm2Values(f *compact.Flux, clusterWidth float64) []float64 {
	vals := f.Values()
	for i, v := range vals {
		vals[i] = units.ToWattsPerCm2(v / clusterWidth)
	}
	return vals
}

// Rasterized returns a copy of the file with the floorplan section
// replaced by the equivalent explicit channel lists (the same spec, a
// different serialization — note the two forms content-hash apart even
// though they solve identically).
func (f *File) Rasterized() (*File, error) {
	if f.Floorplan == nil {
		return nil, fmt.Errorf("scenario: %q has no floorplan to rasterize", f.Name)
	}
	p := f.resolveParams()
	mode, err := f.FloorplanMode()
	if err != nil {
		return nil, err
	}
	chans, err := f.Floorplan.rasterize(p, mode)
	if err != nil {
		return nil, err
	}
	out := *f
	out.Floorplan = nil
	out.Channels = chans
	return &out, nil
}
