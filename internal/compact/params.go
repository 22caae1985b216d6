// Package compact implements the paper's analytical state-space thermal
// model (Sec. III) for liquid-cooled 3D ICs: a steady-state ODE along the
// coolant flow direction z for a stack of two active silicon layers
// sandwiching a cavity of modulated microchannels.
//
// Per modeled channel column the state is
//
//	[T1, T2, q1, q2, TC]
//
// — the two active-layer temperatures, the two longitudinal heat flows and
// the coolant temperature. The governing equations, per unit length, follow
// the electrical analogy of the paper's Fig. 3 with the circuit parameters
// of Eq. (2):
//
//	dT_i/dz = −q_i/ĝl
//	dq_i/dz = q̂i_i(z) − ĝv(z)(T_i − TC) − ĝw(z)(T_i − T_j) − ĝlat·Σ(T_i − T_i,neighbor)
//	dTC/dz  = [ĝv(z)(T1 − TC) + ĝv(z)(T2 − TC)] / (cv·V̇)
//
// with adiabatic boundary conditions q_i(0) = q_i(d) = 0 (Eq. 5). The
// system is linear time-varying (coefficients depend on z through the
// piecewise-constant width profile), so it is solved by multiple shooting
// (package bvp) over the smooth pieces, each propagated by its exact
// matrix-exponential map (expm.go).
//
// The paper's published 4-state form (Eq. 3/4) eliminates TC through global
// energy conservation; that variant is implemented for the single-channel
// case in eliminated.go and cross-checked against the 5-state model in the
// tests.
//
// Cluster lumping: following the paper's own device ("it is also possible
// to combine two or more channels under a single set of top and bottom
// nodes ... by scaling the per-unit-length parameters"), a modeled channel
// column represents ClusterSize physical channels. Table I's
// 4.8 ml/min/channel is interpreted as the flow through one modeled
// cluster of 10 physical 100 µm-pitch channels (0.48 ml/min each) — the
// only reading that makes Table I self-consistent with the paper's
// reported gradients and pressure-drop budget (see DESIGN.md).
package compact

import (
	"fmt"

	"repro/internal/convection"
	"repro/internal/fluids"
	"repro/internal/units"
)

// Params holds the geometry and material parameters of the test structure
// (paper Fig. 2 and Table I).
type Params struct {
	// SiliconConductivity is kSi in W/(m·K). Table I: 130.
	SiliconConductivity float64
	// Pitch is the physical channel pitch W in m. Table I: 100 µm.
	Pitch float64
	// SlabHeight is the silicon slab height HSi in m. Table I: 50 µm.
	SlabHeight float64
	// ChannelHeight is HC in m. Table I: 100 µm.
	ChannelHeight float64
	// Length is the channel length d in m. Experiments: 1 cm.
	Length float64
	// Coolant carries the fluid properties (Table I fixes cv = 4.17e6).
	Coolant fluids.Fluid
	// InletTemp is TC,in in K. Table I: 300.
	InletTemp float64
	// FlowRatePerChannel is the volumetric flow rate through one physical
	// channel in m³/s. Default 0.48 ml/min (Table I's 4.8 ml/min per
	// modeled 10-channel cluster).
	FlowRatePerChannel float64
	// ClusterSize is the number of physical channels lumped into one
	// modeled column. Default 10.
	ClusterSize int
	// BC selects the Nusselt boundary condition (default H1).
	BC convection.BoundaryCondition
	// IncludeEntrance enables the thermal entrance-region enhancement of
	// the heat-transfer coefficient. The paper assumes fully developed
	// flow, so the default is off.
	IncludeEntrance bool
	// DisableFins treats the channel side walls as perfect fins instead of
	// applying the fin-efficiency correction (ablation knob).
	DisableFins bool
}

// DefaultParams returns the Table I parameter set (with the per-physical-
// channel flow-rate reading documented in the package comment).
func DefaultParams() Params {
	return Params{
		SiliconConductivity: 130,
		Pitch:               units.Micrometers(100),
		SlabHeight:          units.Micrometers(50),
		ChannelHeight:       units.Micrometers(100),
		Length:              units.Centimeters(1),
		Coolant:             fluids.DefaultWater(),
		InletTemp:           300,
		FlowRatePerChannel:  units.MilliLitersPerMinute(0.48),
		ClusterSize:         10,
		BC:                  convection.H1,
	}
}

// Validate reports the first invalid parameter, or nil.
func (p Params) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"silicon conductivity", p.SiliconConductivity},
		{"pitch", p.Pitch},
		{"slab height", p.SlabHeight},
		{"channel height", p.ChannelHeight},
		{"length", p.Length},
		{"inlet temperature", p.InletTemp},
		{"flow rate per channel", p.FlowRatePerChannel},
	}
	for _, c := range checks {
		if err := units.CheckPositive(c.name, c.v); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
	}
	if p.ClusterSize < 1 {
		return fmt.Errorf("compact: cluster size %d < 1", p.ClusterSize)
	}
	if err := p.Coolant.Validate(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	return nil
}

// ClusterFlowRate returns the volumetric flow through one modeled column.
func (p Params) ClusterFlowRate() float64 {
	return float64(p.ClusterSize) * p.FlowRatePerChannel
}

// ClusterWidth returns the lateral footprint of one modeled column.
func (p Params) ClusterWidth() float64 {
	return float64(p.ClusterSize) * p.Pitch
}

// Coefficients are the per-unit-length circuit parameters of the paper's
// Eq. (2), scaled to one modeled cluster.
type Coefficients struct {
	// GL is ĝl = kSi·W·HSi in W·m (longitudinal conduction per layer).
	GL float64
	// GVSi is ĝv,Si = kSi·W/HSi in W/(m·K) (slab vertical conduction).
	GVSi float64
	// GW is ĝw = kSi·(W−wC)/(2HSi+HC) in W/(m·K) (side-wall layer-to-layer
	// conduction).
	GW float64
	// HLayer is ĥ in W/(m·K) (per-layer wall→coolant convection).
	HLayer float64
	// GV is ĝv = (ĝv,Si⁻¹ + ĥ⁻¹)⁻¹ in W/(m·K) (series combination,
	// layer→coolant).
	GV float64
	// GLat is the lateral conduction per layer between adjacent modeled
	// columns in W/(m·K).
	GLat float64
	// CvV is cv·V̇ in W/K (coolant advective capacity rate).
	CvV float64
}

// CoefficientsAt evaluates the circuit parameters for channel width w at
// axial position z (z only matters when IncludeEntrance is set).
func (p Params) CoefficientsAt(w, z float64) (Coefficients, error) {
	if err := units.CheckPositive("channel width", w); err != nil {
		return Coefficients{}, fmt.Errorf("compact: %w", err)
	}
	if w >= p.Pitch {
		return Coefficients{}, fmt.Errorf("compact: width %s >= pitch %s leaves no side wall",
			units.Length(w), units.Length(p.Pitch))
	}
	s := float64(p.ClusterSize)
	wall := p.Pitch - w

	opts := convection.CoefficientOptions{
		BC:              p.BC,
		IncludeEntrance: p.IncludeEntrance,
		Z:               z,
		FlowRate:        p.FlowRatePerChannel,
	}
	if !p.DisableFins {
		opts.Fin = convection.FinParams{
			WallConductivity: p.SiliconConductivity,
			WallThickness:    wall,
			WallHeight:       p.ChannelHeight,
		}
	}
	hLayerOne, err := convection.PerLayerCoefficient(p.Coolant, w, p.ChannelHeight, opts)
	if err != nil {
		return Coefficients{}, fmt.Errorf("compact: %w", err)
	}

	c := Coefficients{
		GL:     p.SiliconConductivity * s * p.Pitch * p.SlabHeight,
		GVSi:   p.SiliconConductivity * s * p.Pitch / p.SlabHeight,
		GW:     s * p.SiliconConductivity * wall / (2*p.SlabHeight + p.ChannelHeight),
		HLayer: s * hLayerOne,
		GLat:   p.SiliconConductivity * p.SlabHeight / (s * p.Pitch),
		CvV:    p.Coolant.VolumetricHeatCapacity() * p.ClusterFlowRate(),
	}
	c.GV = 1 / (1/c.GVSi + 1/c.HLayer)
	return c, nil
}
