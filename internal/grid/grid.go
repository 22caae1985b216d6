// Package grid implements a compact finite-volume thermal simulator for
// two-tier liquid-cooled stacks — the stand-in for the 3D-ICE numerical
// simulator the paper validates against and uses for its thermal maps
// (Figs. 1 and 9).
//
// The discretization follows the same compact-resistance philosophy as
// 3D-ICE: each die layer becomes a 2D grid of cells with in-plane
// conduction, the microchannel cavity becomes a grid of coolant cells with
// upwind advection along the flow direction and convective coupling to the
// adjacent silicon, and the channel side walls provide a direct
// layer-to-layer conduction path. All outer surfaces are adiabatic, heat
// enters through per-cell power densities on the two active layers and
// leaves through the coolant — the same boundary conditions as the
// analytical model, which makes the two directly comparable.
//
// Unknowns are ordered [T_top | T_bottom | T_coolant], each an NY×NX block
// in row-major (y, x) order with x the flow direction. The resulting
// sparse non-symmetric system is solved with Jacobi-preconditioned
// BiCGSTAB.
package grid

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/compact"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/units"
)

// Config describes the simulated stack.
type Config struct {
	// Params reuses the compact model's geometry and material parameters
	// (kSi, HSi, HC, pitch, coolant, inlet temperature, per-channel flow).
	// ClusterSize is ignored: the grid resolves channels per cell from the
	// pitch.
	Params compact.Params
	// LengthX is the die extent along the coolant flow (m).
	LengthX float64
	// WidthY is the die extent across the channels (m).
	WidthY float64
	// NX and NY are the grid resolution along and across the flow.
	NX, NY int
}

// Validate reports the first invalid configuration entry.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := units.CheckPositive("LengthX", c.LengthX); err != nil {
		return err
	}
	if err := units.CheckPositive("WidthY", c.WidthY); err != nil {
		return err
	}
	if c.NX < 2 || c.NY < 1 {
		return fmt.Errorf("grid: resolution %dx%d too small (need NX>=2, NY>=1)", c.NX, c.NY)
	}
	if c.WidthY/float64(c.NY) < c.Params.Pitch {
		return fmt.Errorf("grid: cell width %s below channel pitch %s — lower NY",
			units.Length(c.WidthY/float64(c.NY)), units.Length(c.Params.Pitch))
	}
	return nil
}

// FieldFunc samples a quantity at die coordinates (x along flow, y across).
type FieldFunc func(x, y float64) float64

// Stack couples a configuration with its power and width fields.
type Stack struct {
	Cfg Config
	// PowerTop and PowerBottom are areal power densities (W/m²) of the two
	// active layers.
	PowerTop, PowerBottom FieldFunc
	// Width is the local channel width (m); constant functions reproduce
	// uniform designs, profile-backed functions reproduce modulation.
	Width FieldFunc
	// FlowScale optionally multiplies the per-channel coolant flow rate
	// (nil → 1 everywhere). It is sampled once per grid row at the row's
	// axial midpoint — flow through a channel is constant along it — and
	// mirrors compact.Channel.FlowScale: the runtime valve actuation of
	// the Qian-style flow-allocation baseline.
	FlowScale FieldFunc
}

// Field is the resolved steady-state temperature field.
type Field struct {
	// NX and NY are the grid resolution.
	NX, NY int
	// DX and DY are the cell sizes.
	DX, DY float64
	// Top, Bottom and Coolant are [NY][NX] temperature maps in kelvin.
	Top, Bottom, Coolant [][]float64
	// Iterations reports the linear-solver iteration count.
	Iterations int
	// Residual is the final relative linear residual.
	Residual float64
}

// ErrSolver wraps linear-solver failures.
var ErrSolver = errors.New("grid: linear solve failed")

// system is the assembled linear model shared by the steady-state and
// transient solvers: conductance matrix G, the constant part of the
// right-hand side (coolant inlet advection), cell capacitances, and the
// geometry needed to refresh the power part of the RHS.
type system struct {
	nx, ny   int
	dx, dy   float64
	g        *sparse.CSR
	rhsConst mat.Vec // inlet advection terms (constant in time)
	caps     mat.Vec // per-unknown heat capacitance in J/K
}

func (sys *system) idxTop(i, j int) int  { return j*sys.nx + i }
func (sys *system) idxBot(i, j int) int  { return sys.nx*sys.ny + j*sys.nx + i }
func (sys *system) idxCool(i, j int) int { return 2*sys.nx*sys.ny + j*sys.nx + i }

// SiliconVolumetricHeat is the volumetric heat capacity of silicon in
// J/(m³·K) used for the transient capacitances.
const SiliconVolumetricHeat = 1.63e6

// assemble builds the conductance matrix, constant RHS terms and
// capacitances from the stack description.
func (s *Stack) assemble() (*system, error) {
	if err := s.Cfg.Validate(); err != nil {
		return nil, err
	}
	if s.PowerTop == nil || s.PowerBottom == nil || s.Width == nil {
		return nil, errors.New("grid: PowerTop, PowerBottom and Width must all be set")
	}
	p := s.Cfg.Params
	nx, ny := s.Cfg.NX, s.Cfg.NY
	dx := s.Cfg.LengthX / float64(nx)
	dy := s.Cfg.WidthY / float64(ny)
	nCell := nx * ny
	nTot := 3 * nCell

	sys := &system{
		nx: nx, ny: ny, dx: dx, dy: dy,
		rhsConst: make(mat.Vec, nTot),
		caps:     make(mat.Vec, nTot),
	}

	// Per-cell channel count and coolant capacity rate.
	chPerCell := dy / p.Pitch
	cvVNom := p.Coolant.VolumetricHeatCapacity() * p.FlowRatePerChannel * chPerCell

	// Per-row flow multipliers, sampled at the axial midpoint: flow
	// through a channel is constant along it, so one sample per row keeps
	// the upwind advection mass-consistent cell to cell.
	rowScale := make([]float64, ny)
	for j := range rowScale {
		rowScale[j] = 1
		if s.FlowScale != nil {
			y := (float64(j) + 0.5) * dy
			sc := s.FlowScale(s.Cfg.LengthX/2, y)
			if !(sc > 0) {
				return nil, fmt.Errorf("grid: row %d flow scale %g must be positive", j, sc)
			}
			rowScale[j] = sc
		}
	}

	// In-plane conduction conductances (per slab).
	gx := p.SiliconConductivity * p.SlabHeight * dy / dx
	gy := p.SiliconConductivity * p.SlabHeight * dx / dy

	b := sparse.NewBuilder(nTot, nTot)

	for j := 0; j < ny; j++ {
		cvV := cvVNom * rowScale[j]
		for i := 0; i < nx; i++ {
			x := (float64(i) + 0.5) * dx
			y := (float64(j) + 0.5) * dy
			w := s.Width(x, y)
			coeff, err := p.CoefficientsAt(w, x)
			if err != nil {
				return nil, fmt.Errorf("grid: cell (%d,%d): %w", i, j, err)
			}
			// Convert the per-unit-length cluster parameters back to
			// per-physical-channel, then to per-cell conductances.
			sCl := float64(p.ClusterSize)
			gvCell := coeff.GV / sCl * chPerCell * dx
			gwCell := coeff.GW / sCl * chPerCell * dx

			top, bot, cool := sys.idxTop(i, j), sys.idxBot(i, j), sys.idxCool(i, j)

			// Capacitances: silicon slabs, and the coolant volume in the
			// cell's channels.
			sys.caps[top] = SiliconVolumetricHeat * p.SlabHeight * dx * dy
			sys.caps[bot] = sys.caps[top]
			sys.caps[cool] = p.Coolant.VolumetricHeatCapacity() * w * p.ChannelHeight * chPerCell * dx

			// In-plane conduction for both slabs.
			for _, nb := range [][2]int{{i - 1, j}, {i + 1, j}, {i, j - 1}, {i, j + 1}} {
				ni, nj := nb[0], nb[1]
				if ni < 0 || ni >= nx || nj < 0 || nj >= ny {
					continue // adiabatic edge
				}
				g := gx
				if nj != j {
					g = gy
				}
				b.Add(top, top, g)
				b.Add(top, sys.idxTop(ni, nj), -g)
				b.Add(bot, bot, g)
				b.Add(bot, sys.idxBot(ni, nj), -g)
			}

			// Layer ↔ coolant convection.
			b.Add(top, top, gvCell)
			b.Add(top, cool, -gvCell)
			b.Add(bot, bot, gvCell)
			b.Add(bot, cool, -gvCell)

			// Layer ↔ layer side-wall conduction.
			b.Add(top, top, gwCell)
			b.Add(top, bot, -gwCell)
			b.Add(bot, bot, gwCell)
			b.Add(bot, top, -gwCell)

			// Coolant energy balance with upwind advection:
			// cvV·(TC_i − TC_{i-1}) = gv(Ttop−TC) + gv(Tbot−TC).
			b.Add(cool, cool, cvV+2*gvCell)
			b.Add(cool, top, -gvCell)
			b.Add(cool, bot, -gvCell)
			if i == 0 {
				sys.rhsConst[cool] += cvV * p.InletTemp
			} else {
				b.Add(cool, sys.idxCool(i-1, j), -cvV)
			}
		}
	}
	sys.g = b.Build()
	return sys, nil
}

// powerRHS adds the per-cell power injection of the given fields at time t
// into dst (which must already hold the constant RHS part).
func (s *Stack) powerRHS(sys *system, dst mat.Vec, pTop, pBottom TimeFieldFunc, t float64) {
	for j := 0; j < sys.ny; j++ {
		for i := 0; i < sys.nx; i++ {
			x := (float64(i) + 0.5) * sys.dx
			y := (float64(j) + 0.5) * sys.dy
			dst[sys.idxTop(i, j)] += pTop(x, y, t) * sys.dx * sys.dy
			dst[sys.idxBot(i, j)] += pBottom(x, y, t) * sys.dx * sys.dy
		}
	}
}

// unpack converts a solution vector into a Field.
func (sys *system) unpack(x mat.Vec, iterations int, residual float64) *Field {
	f := &Field{
		NX: sys.nx, NY: sys.ny, DX: sys.dx, DY: sys.dy,
		Top:        make([][]float64, sys.ny),
		Bottom:     make([][]float64, sys.ny),
		Coolant:    make([][]float64, sys.ny),
		Iterations: iterations,
		Residual:   residual,
	}
	for j := 0; j < sys.ny; j++ {
		f.Top[j] = make([]float64, sys.nx)
		f.Bottom[j] = make([]float64, sys.nx)
		f.Coolant[j] = make([]float64, sys.nx)
		for i := 0; i < sys.nx; i++ {
			f.Top[j][i] = x[sys.idxTop(i, j)]
			f.Bottom[j][i] = x[sys.idxBot(i, j)]
			f.Coolant[j][i] = x[sys.idxCool(i, j)]
		}
	}
	return f
}

// steadyTol is the relative residual tolerance of the steady solve.
const steadyTol = 1e-9

// Solve assembles and solves the steady-state thermal system.
func (s *Stack) Solve() (*Field, error) {
	sys, err := s.assemble()
	if err != nil {
		return nil, err
	}
	p := s.Cfg.Params
	nTot := 3 * sys.nx * sys.ny

	rhs := sys.rhsConst.Clone()
	s.powerRHS(sys, rhs,
		func(x, y, _ float64) float64 { return s.PowerTop(x, y) },
		func(x, y, _ float64) float64 { return s.PowerBottom(x, y) }, 0)

	// Warm start from the inlet temperature everywhere.
	x0 := make(mat.Vec, nTot)
	for i := range x0 {
		x0[i] = p.InletTemp
	}
	res, err := sparse.BiCGSTAB(sys.g, rhs, sparse.SolveOptions{
		Tol:     steadyTol,
		MaxIter: 40 * nTot,
		X0:      x0,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSolver, err)
	}
	return sys.unpack(res.X, res.Iterations, res.Residual), nil
}

// SiliconExtrema returns the minimum and maximum silicon temperature over
// both layers.
func (f *Field) SiliconExtrema() (minT, maxT float64) {
	minT, maxT = math.Inf(1), math.Inf(-1)
	for _, layer := range [][][]float64{f.Top, f.Bottom} {
		for _, row := range layer {
			for _, v := range row {
				if v < minT {
					minT = v
				}
				if v > maxT {
					maxT = v
				}
			}
		}
	}
	return minT, maxT
}

// Gradient returns Tmax − Tmin over the silicon (the paper's thermal
// gradient metric).
func (f *Field) Gradient() float64 {
	lo, hi := f.SiliconExtrema()
	return hi - lo
}

// PeakTemperature returns the maximum silicon temperature.
func (f *Field) PeakTemperature() float64 {
	_, hi := f.SiliconExtrema()
	return hi
}

// CoolantOutletMax returns the hottest coolant outlet temperature.
func (f *Field) CoolantOutletMax() float64 {
	m := math.Inf(-1)
	for j := 0; j < f.NY; j++ {
		if v := f.Coolant[j][f.NX-1]; v > m {
			m = v
		}
	}
	return m
}

// HeatAbsorbed returns the total heat carried away by the coolant in W,
// given the stack that produced the field (used by energy-balance checks).
func (f *Field) HeatAbsorbed(s *Stack) float64 {
	p := s.Cfg.Params
	chPerCell := f.DY / p.Pitch
	cvV := p.Coolant.VolumetricHeatCapacity() * p.FlowRatePerChannel * chPerCell
	var q float64
	for j := 0; j < f.NY; j++ {
		scale := 1.0
		if s.FlowScale != nil {
			scale = s.FlowScale(s.Cfg.LengthX/2, (float64(j)+0.5)*f.DY)
		}
		q += cvV * scale * (f.Coolant[j][f.NX-1] - p.InletTemp)
	}
	return q
}

// AxialProfile returns the temperature along the flow direction of the
// given layer ("top", "bottom" or "coolant") averaged across y.
func (f *Field) AxialProfile(layer string) (mat.Vec, error) {
	var src [][]float64
	switch layer {
	case "top":
		src = f.Top
	case "bottom":
		src = f.Bottom
	case "coolant":
		src = f.Coolant
	default:
		return nil, fmt.Errorf("grid: unknown layer %q", layer)
	}
	out := make(mat.Vec, f.NX)
	for i := 0; i < f.NX; i++ {
		var s float64
		for j := 0; j < f.NY; j++ {
			s += src[j][i]
		}
		out[i] = s / float64(f.NY)
	}
	return out, nil
}
