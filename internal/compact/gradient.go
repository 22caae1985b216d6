package compact

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Adjoint gradient of the heat-extraction objective.
//
// SolveGradient differentiates J = Result.ObjectiveQ2() — the discrete
// trapezoid functional the optimizers actually minimize — with respect to
// per-channel width segments and flow scales in one forward solve plus one
// backward pass, replacing the K+1-solve finite-difference loop.
//
// Three ingredients compose exactly, with no truncation beyond roundoff:
//
//  1. Within each smooth piece the dense trajectory is the recurrence
//     y_{j+1} = Φ̃_h·y_j on augmented states y = [x; z−a; 1] (see expm.go),
//     so the discrete adjoint is the transposed recurrence
//     a_j = g_j + Φ̃_hᵀ·a_{j+1} with g_j the trapezoid weights of J, and
//     the piece's direct sensitivity is ⟨Γ, ∂Φ̃_h/∂θ⟩ with
//     Γ = Σ_j a_{j+1}·y_jᵀ.
//  2. The interface states solve the shooting system S·u = r assembled
//     from the same exponentials, so one transposed solve with the
//     already-held LU (bvp.Workspace.AdjointSolve) propagates ∂J/∂x(z_i)
//     through the boundary-value coupling, and per parameter only the
//     scalar λᵀ·d(S·u − r)/dθ remains.
//  3. ∂Φ/∂θ, ∂ψ/∂θ and ∂Φ̃_h/∂θ are Fréchet derivatives of the piece
//     exponentials in the direction dÃ/dθ, computed by Al-Mohy & Higham's
//     recurrence on the piece's own n×n generator (mat.ExpmWS.Frechet) and
//     memoized next to the transition cache: a line search revisiting a
//     design pays only for pieces whose coefficients actually changed.
//
// Only the generator direction dÃ/dθ itself is finite-differenced — a
// central difference of the cheap algebraic coefficient map, never of a
// solve — because the convection-stack coefficients are not worth
// hand-differentiating. Its error (~1e-12 relative) is far below the
// agreement the property tests demand.

// GradKind selects which decision-parameter family a GradParam addresses.
type GradKind int

const (
	// GradWidth differentiates with respect to one width-profile segment
	// of one channel (meters).
	GradWidth GradKind = iota
	// GradFlow differentiates with respect to one channel's FlowScale.
	GradFlow
)

func (k GradKind) String() string {
	switch k {
	case GradWidth:
		return "width"
	case GradFlow:
		return "flow"
	}
	return fmt.Sprintf("GradKind(%d)", int(k))
}

// GradParam identifies one scalar decision parameter of a gradient request.
type GradParam struct {
	Channel int
	Kind    GradKind
	// Segment is the width-profile segment index for GradWidth; ignored
	// for GradFlow.
	Segment int
}

// derivEntry is the memoized θ-sensitivity of one smooth piece for one
// (parameter kind, channel): the Fréchet derivatives of the full-interval
// transition map and of the dense-recurrence sub-step map.
type derivEntry struct {
	dPhi     *mat.Dense // dim×dim   ∂Φ/∂θ
	dPsi     mat.Vec    // dim       ∂ψ/∂θ
	dPhiStep *mat.Dense // adim×adim ∂Φ̃_h/∂θ
}

// SolveGradient solves the model for the given channels and computes
// dJ/dθ of the raw objective J = Result.ObjectiveQ2() for each requested
// parameter into grad (len(grad) == len(params)). The Result of the
// forward solve is returned and is bit-identical to SolveChannels on the
// same design. Requires the PropExpm propagation mode.
func (e *Evaluator) SolveGradient(channels []Channel, params []GradParam, grad mat.Vec) (*Result, error) {
	if e.prop != PropExpm {
		return nil, fmt.Errorf("compact: SolveGradient requires exact (expm) propagation; evaluator uses RK4")
	}
	if len(grad) != len(params) {
		return nil, fmt.Errorf("compact: gradient storage holds %d entries, want %d", len(grad), len(params))
	}
	n := len(channels)
	for _, p := range params {
		if p.Channel < 0 || p.Channel >= n {
			return nil, fmt.Errorf("compact: gradient parameter channel %d out of range [0, %d)", p.Channel, n)
		}
		switch p.Kind {
		case GradWidth:
			if segs := channels[p.Channel].Width.Segments(); p.Segment < 0 || p.Segment >= segs {
				return nil, fmt.Errorf("compact: gradient parameter segment %d out of range [0, %d)", p.Segment, segs)
			}
		case GradFlow:
		default:
			return nil, fmt.Errorf("compact: unknown gradient parameter kind %d", int(p.Kind))
		}
	}

	elim := n == 1
	var res *Result
	var err error
	if elim {
		res, err = e.SolveEliminated(channels[0])
	} else {
		res, err = e.Solve(channels)
	}
	if err != nil {
		return nil, err
	}
	e.stats.GradientSolves++

	dim := elimDim
	if !elim {
		dim = statePerChannel * n
	}
	adim := dim + 2
	m := len(e.ifaces) - 1

	// Trapezoid boundary weights of ObjectiveQ2 on the stitched grid:
	// ∂J/∂Q·[t] = coef[t]·Q·[t] with coef[t] the sum of the adjacent
	// sample spacings.
	zg := res.Z
	nz := len(zg)
	e.coef = growVec(e.coef, nz)
	e.coef.Fill(0)
	for t := 0; t+1 < nz; t++ {
		h := zg[t+1] - zg[t]
		e.coef[t] += h
		e.coef[t+1] += h
	}
	// addG adds ∂J/∂x at stitched sample t into dst[:dim].
	addG := func(t int, dst mat.Vec) {
		for k := range res.Channels {
			base := statePerChannel * k
			if elim {
				base = 0
			}
			cr := &res.Channels[k]
			dst[base+idxQ1] += e.coef[t] * cr.Q1[t]
			dst[base+idxQ2] += e.coef[t] * cr.Q2[t]
		}
	}
	// loadState writes stitched sample t into dst[:dim].
	loadState := func(t int, dst mat.Vec) {
		for k := range res.Channels {
			cr := &res.Channels[k]
			if elim {
				dst[0], dst[1], dst[2], dst[3] = cr.T1[t], cr.T2[t], cr.Q1[t], cr.Q2[t]
				return
			}
			base := statePerChannel * k
			dst[base+idxT1] = cr.T1[t]
			dst[base+idxT2] = cr.T2[t]
			dst[base+idxQ1] = cr.Q1[t]
			dst[base+idxQ2] = cr.Q2[t]
			dst[base+idxTC] = cr.TC[t]
		}
	}

	nP := len(params)
	direct := make(mat.Vec, nP)
	dPhiArr := make([][]*mat.Dense, nP)
	dPsiArr := make([][]mat.Vec, nP)
	for p := range params {
		dPhiArr[p] = make([]*mat.Dense, m)
		dPsiArr[p] = make([]mat.Vec, m)
	}
	gx := make([]mat.Vec, m)
	e.gxbuf = growVec(e.gxbuf, m*dim)
	e.adj = growVec(e.adj, adim)
	e.adj2 = growVec(e.adj2, adim)
	e.y = growVec(e.y, adim)
	e.gamma = mat.ReshapeDense(e.gamma, adim, adim)
	affected := make([]int, 0, nP)

	t0 := 0
	for i := 0; i < m; i++ {
		ai, bi := e.ifaces[i], e.ifaces[i+1]
		var ent *pieceEntry
		if elim {
			ent, err = e.entry4(channels[0], ai, bi)
		} else {
			ent, err = e.entry5(channels, ai, bi)
		}
		if err != nil {
			return nil, err
		}
		mid := 0.5 * (ai + bi)

		// Parameters touching this piece: flow scales enter every piece of
		// their channel's coefficients; a width segment only the pieces it
		// geometrically contains (intervals never straddle a boundary).
		affected = affected[:0]
		for p, gp := range params {
			if gp.Kind == GradFlow || channels[gp.Channel].Width.SegmentIndex(mid) == gp.Segment {
				affected = append(affected, p)
			}
		}
		need := len(affected) > 0

		// Backward trapezoid-weighted recurrence a_j = g_j + Φ̃_hᵀ·a_{j+1}
		// over the piece's dense samples, accumulating Γ = Σ a_{j+1}·y_jᵀ.
		// Sample j of interval i is stitched index t0+j; the stitching skips
		// each interior interval's j = 0 (its weight belongs to the previous
		// interval's endpoint, which the j = n_i sample carries).
		ni := ent.steps
		hi := (bi - ai) / float64(ni)
		av, av2 := e.adj, e.adj2
		av.Fill(0)
		addG(t0+ni, av)
		if need {
			for r := 0; r < adim; r++ {
				e.gamma.Row(r).Fill(0)
			}
		}
		for j := ni - 1; j >= 0; j-- {
			if need {
				y := e.y
				if j == 0 {
					copy(y[:dim], e.ws.InterfaceState(i))
				} else {
					loadState(t0+j, y)
				}
				y[dim] = float64(j) * hi
				y[dim+1] = 1
				for r := 0; r < adim; r++ {
					arv := av[r]
					if arv == 0 {
						continue
					}
					row := e.gamma.Row(r)
					for s, v := range y {
						row[s] += arv * v
					}
				}
			}
			av2.Fill(0)
			for r := 0; r < adim; r++ {
				arv := av[r]
				if arv == 0 {
					continue
				}
				for s, v := range ent.phiStep.Row(r) {
					av2[s] += arv * v
				}
			}
			av, av2 = av2, av
			if j > 0 || i == 0 {
				addG(t0+j, av)
			}
		}
		gx[i] = e.gxbuf[i*dim : (i+1)*dim]
		copy(gx[i], av[:dim])

		for _, p := range affected {
			de, derr := e.deriv(channels, ent, ai, bi, params[p], elim)
			if derr != nil {
				return nil, derr
			}
			var dot float64
			for r := 0; r < adim; r++ {
				dot += e.gamma.Row(r).Dot(de.dPhiStep.Row(r))
			}
			direct[p] += dot
			dPhiArr[p][i] = de.dPhi
			dPsiArr[p][i] = de.dPsi
		}
		t0 += ni
	}
	if t0+1 != nz {
		return nil, fmt.Errorf("compact: internal: stitched grid has %d samples, pieces cover %d", nz, t0+1)
	}

	lam, err := e.ws.AdjointSolve(gx)
	if err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	for p := range params {
		grad[p] = direct[p] - e.ws.GradientTerm(lam, dPhiArr[p], dPsiArr[p])
	}
	return res, nil
}

// deriv returns the memoized piece sensitivity for one parameter, keyed by
// the piece's transition key (still in e.key from the entry lookup) plus
// the parameter kind and channel — the segment index is implied by the
// piece's position.
func (e *Evaluator) deriv(channels []Channel, ent *pieceEntry, a, b float64, p GradParam, elim bool) (*derivEntry, error) {
	key := append(e.dkey[:0], e.key...)
	key = append(key, 'D', byte(p.Kind))
	key = binary.LittleEndian.AppendUint32(key, uint32(p.Channel))
	e.dkey = key
	if de, ok := e.dcach[string(key)]; ok {
		e.stats.DerivHits++
		return de, nil
	}
	e.stats.DerivMisses++
	de, err := e.computeDeriv(channels, ent, a, b, p, elim)
	if err != nil {
		return nil, err
	}
	if e.dcach == nil {
		e.dcach = make(map[string]*derivEntry)
	}
	if len(e.dcach) >= maxCacheEntries {
		e.dcach = make(map[string]*derivEntry)
		e.stats.CacheFlushes++
	}
	e.dcach[string(e.dkey)] = de
	return de, nil
}

// computeDeriv builds the generator direction dÃ/dθ and pushes it through
// the Fréchet derivative of both piece exponentials.
func (e *Evaluator) computeDeriv(channels []Channel, ent *pieceEntry, a, b float64, p GradParam, elim bool) (*derivEntry, error) {
	dim := elimDim
	if !elim {
		dim = statePerChannel * len(channels)
	}
	adim := dim + 2
	if err := e.augDirection(channels, ent, a, b, p, elim); err != nil {
		return nil, fmt.Errorf("compact: piece [%g, %g] d/d(%s): %w", a, b, p.Kind, err)
	}

	e.augS = mat.ReshapeDense(e.augS, adim, adim)
	e.augDS = mat.ReshapeDense(e.augDS, adim, adim)
	scaleDense(e.augS, ent.atilde, b-a)
	scaleDense(e.augDS, e.augD, b-a)
	exp, l, err := e.ews.Frechet(e.augE, e.augL, e.augS, e.augDS)
	if err != nil {
		return nil, fmt.Errorf("compact: piece [%g, %g] d/d(%s): %w", a, b, p.Kind, err)
	}
	e.augE, e.augL = exp, l
	de := &derivEntry{dPhi: mat.NewDense(dim, dim), dPsi: make(mat.Vec, dim)}
	for r := 0; r < dim; r++ {
		copy(de.dPhi.Row(r), l.Row(r)[:dim])
		de.dPsi[r] = l.At(r, dim+1)
	}

	h := (b - a) / float64(ent.steps)
	scaleDense(e.augS, ent.atilde, h)
	scaleDense(e.augDS, e.augD, h)
	exp, dps, err := e.ews.Frechet(e.augE, nil, e.augS, e.augDS)
	if err != nil {
		return nil, fmt.Errorf("compact: piece [%g, %g] d/d(%s) sub-step: %w", a, b, p.Kind, err)
	}
	e.augE = exp
	de.dPhiStep = dps
	return de, nil
}

// fdRelStep is the relative step of the central difference producing the
// generator direction dÃ/dθ. The generator entries are smooth rational
// functions of width and flow, so the truncation error (~step² relative)
// sits many orders below the agreement the gradient tests demand.
const fdRelStep = 1e-6

// augDirection writes dÃ/dθ for parameter p of the piece [a, b] into
// e.augD, by central-differencing the algebraic generator construction —
// never a solve. If one side of the stencil leaves the feasible width
// range it falls back to a one-sided difference against the piece's own
// generator.
func (e *Evaluator) augDirection(channels []Channel, ent *pieceEntry, a, b float64, p GradParam, elim bool) error {
	mid := 0.5 * (a + b)
	ch := channels[p.Channel]
	fs := ch.flowScale()
	n := len(channels)
	dim := elimDim
	if !elim {
		dim = statePerChannel * n
	}
	adim := dim + 2

	var base float64
	switch p.Kind {
	case GradWidth:
		base = ch.Width.At(mid)
	case GradFlow:
		base = fs
	}
	delta := fdRelStep * math.Abs(base)
	if delta == 0 {
		delta = fdRelStep
	}

	// buildAt rebuilds the augmented generator at θ+d into e.aug. Flow
	// perturbations rescale the already-scaled CvV in place; width
	// perturbations re-run the coefficient map at the shifted width.
	buildAt := func(d float64) error {
		if elim {
			tmp := pieceEntry{c4: ent.c4, f1: ent.f1, f2: ent.f2, qinA: ent.qinA}
			switch p.Kind {
			case GradWidth:
				c, err := e.params.CoefficientsAt(base+d, mid)
				if err != nil {
					return err
				}
				c.CvV *= fs
				tmp.c4 = c
			case GradFlow:
				tmp.c4.CvV = ent.c4.CvV / fs * (fs + d)
			}
			e.buildAug4(&tmp, a)
			return nil
		}
		if cap(e.pcs) < n {
			e.pcs = make([]Coefficients, n)
		}
		cs := e.pcs[:n]
		copy(cs, ent.pc.c)
		switch p.Kind {
		case GradWidth:
			c, err := e.params.CoefficientsAt(base+d, mid)
			if err != nil {
				return err
			}
			c.CvV *= fs
			cs[p.Channel] = c
		case GradFlow:
			cs[p.Channel].CvV = ent.pc.c[p.Channel].CvV / fs * (fs + d)
		}
		tmp := pieceEntry{pc: pieceCoeffs{c: cs, fluxTop: ent.pc.fluxTop, fluxBottom: ent.pc.fluxBottom}}
		e.buildAug5(&tmp, n)
		return nil
	}

	e.augD = mat.ReshapeDense(e.augD, adim, adim)
	e.augP = mat.ReshapeDense(e.augP, adim, adim)
	errP := buildAt(delta)
	if errP == nil {
		for r := 0; r < adim; r++ {
			copy(e.augP.Row(r), e.aug.Row(r))
		}
	}
	errM := buildAt(-delta)
	switch {
	case errP == nil && errM == nil:
		for r := 0; r < adim; r++ {
			d, hi, lo := e.augD.Row(r), e.augP.Row(r), e.aug.Row(r)
			for i := range d {
				d[i] = (hi[i] - lo[i]) / (2 * delta)
			}
		}
	case errP == nil:
		for r := 0; r < adim; r++ {
			d, hi, at := e.augD.Row(r), e.augP.Row(r), ent.atilde.Row(r)
			for i := range d {
				d[i] = (hi[i] - at[i]) / delta
			}
		}
	case errM == nil:
		for r := 0; r < adim; r++ {
			d, at, lo := e.augD.Row(r), ent.atilde.Row(r), e.aug.Row(r)
			for i := range d {
				d[i] = (at[i] - lo[i]) / delta
			}
		}
	default:
		return errP
	}
	return nil
}
