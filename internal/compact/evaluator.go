package compact

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bvp"
	"repro/internal/mat"
)

// Evaluator is a reusable solve session for compact thermal models sharing
// one parameter set. It replaces the build-model-then-solve pattern on hot
// paths (optimization loops perform hundreds of solves per channel) with
// two ingredients:
//
//  1. Piecewise transition-map memoization. The model ODE is linear with
//     piecewise-constant coefficients, so over one smooth piece [a, b] the
//     propagation is an affine map x(b) = Φ·x(a) + ψ that depends only on
//     the piece's coefficient inputs — the channel widths, flow scales and
//     flux densities at the piece midpoint (plus, for the eliminated form,
//     the cumulative injected heat at the piece start). The evaluator
//     aligns the multiple-shooting interfaces with the smooth pieces and
//     caches every (Φ, ψ) under a key built from exactly those inputs.
//     A finite-difference gradient perturbs one width segment at a time,
//     so of the K+ pieces of a perturbed design all but the touched piece
//     hit the cache: the K-segment gradient costs K×(≈1 recomputed piece +
//     cheap reassembly) instead of K×(full piece exponentials).
//
//  2. Reusable scratch arenas threaded down the stack: the bvp workspace
//     (shooting system, staircase factorization, stitched trajectory), the
//     exponential workspace and per-interval trajectory storage are all
//     owned by the evaluator and recycled across solves.
//
// Determinism: a cached (Φ, ψ) is byte-for-byte the value a fresh
// computation produces, because the cache key captures every input of the
// piece map and its computation (expmFinish) is deterministic. Model.Solve
// and Model.SolveEliminated delegate to a fresh evaluator, so a warm
// evaluator returns bit-identical Results to a fresh model solve — the
// property the correctness tests assert.
//
// An Evaluator is NOT safe for concurrent use. Batch drivers construct one
// evaluator per worker goroutine (cheap: the zero cache fills on first use),
// preserving the no-locking invariant of the batch engine.
type Evaluator struct {
	params Params

	cache map[string]*pieceEntry
	dcach map[string]*derivEntry
	key   []byte
	stats EvalStats

	ews  mat.ExpmWS
	aug  *mat.Dense // augmented piece generator scratch
	augS *mat.Dense // scaled-generator scratch
	augE *mat.Dense // full-interval augmented exponential scratch
	y    mat.Vec    // dense-recurrence state scratch
	y2   mat.Vec

	// Adjoint gradient scratch (see gradient.go).
	augP  *mat.Dense // perturbed-generator stencil point
	augD  *mat.Dense // generator direction dÃ/dθ
	augDS *mat.Dense // scaled direction scratch
	augL  *mat.Dense // Fréchet derivative scratch
	gamma *mat.Dense // per-piece Γ = Σ a_{j+1}·y_jᵀ accumulator
	adj   mat.Vec    // augmented adjoint state
	adj2  mat.Vec
	coef  mat.Vec        // trapezoid boundary weights on the stitched grid
	gxbuf mat.Vec        // flat ∂J/∂x(z_i) storage
	pcs   []Coefficients // perturbed-coefficient scratch (5-state stencil)
	dkey  []byte

	ws     bvp.Workspace
	seg    bvp.Trajectory // per-interval reconstruction trajectory
	basis  mat.Vec
	col    mat.Vec
	zeroFx []float64 // all-zero flux view for the generator's linear part
	ifaces []float64
	model  Model // scratch view binding Params to the current channels

	x0    mat.Vec
	modes []mat.Vec
	term  []int
}

// EvalStats counts the work an evaluator has performed.
type EvalStats struct {
	// Solves is the number of model solves (both forms).
	Solves int
	// GradientSolves is the number of adjoint gradient evaluations
	// (each one forward solve plus one adjoint pass).
	GradientSolves int
	// TransitionHits and TransitionMisses count piece-transition cache
	// lookups. A miss computes the piece exponentials; a hit reuses the
	// memoized affine map.
	TransitionHits, TransitionMisses uint64
	// DerivHits and DerivMisses count piece-derivative cache lookups of
	// the adjoint gradient path. A miss computes a Fréchet derivative of
	// the piece exponential; a hit reuses the memoized (∂Φ, ∂ψ, ∂Φ̃_h).
	DerivHits, DerivMisses uint64
	// CacheFlushes counts whole-cache evictions (bounded-memory safety
	// valve; see maxCacheEntries).
	CacheFlushes int
}

// maxCacheEntries bounds the transition cache. A solve touches tens of
// pieces and a full optimization run a few thousand distinct ones, so the
// bound is generous; when line searches scan enough distinct widths to hit
// it, the whole cache is dropped (values are reproducible, so eviction can
// never change results).
const maxCacheEntries = 1 << 15

// pieceEntry is the memoized propagation of one smooth piece: the affine
// transition map, the frozen coefficients it was built from, and the maps
// that sample the piece densely during trajectory reconstruction.
type pieceEntry struct {
	phi *mat.Dense
	psi mat.Vec

	// 5-state data.
	pc pieceCoeffs

	// 4-state (eliminated) data.
	c4           Coefficients
	f1, f2, qinA float64

	// The augmented piece generator Ã and the augmented sub-step map
	// e^{Ã·h} driving dense reconstruction and the adjoint's backward
	// recurrence. steps is the piece's dense sample count.
	atilde  *mat.Dense
	phiStep *mat.Dense
	steps   int
}

// denseSamples is the number of dense trajectory samples over the channel
// length, distributed across the smooth pieces. It sets only the sampling
// of the reported profiles and of the trapezoid objective: the piece maps
// are exact at any sample count.
const denseSamples = 400

// NewEvaluator returns an empty evaluation session for the given parameter
// set.
func NewEvaluator(params Params) *Evaluator {
	return &Evaluator{
		params: params,
		cache:  make(map[string]*pieceEntry),
	}
}

// Params returns the parameter set the evaluator was built for.
func (e *Evaluator) Params() Params { return e.params }

// Stats returns the accumulated work counters.
func (e *Evaluator) Stats() EvalStats { return e.stats }

// SolveChannels picks the cheaper published 4-state form for single-column
// models and the coupled 5-state form otherwise — the policy of every
// optimizer hot path.
func (e *Evaluator) SolveChannels(channels []Channel) (*Result, error) {
	if len(channels) == 1 {
		return e.SolveEliminated(channels[0])
	}
	return e.Solve(channels)
}

// Solve resolves the steady state of the coupled 5-state-per-column model
// for the given channels, reusing cached piece transitions and the solver
// workspace. Results are bit-identical to Model.Solve on an equivalent
// model, regardless of what the evaluator solved before.
func (e *Evaluator) Solve(channels []Channel) (*Result, error) {
	m := &e.model
	m.Params, m.Channels = e.params, channels
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e.stats.Solves++
	n := len(channels)
	dim := statePerChannel * n
	bps := m.breakpoints()
	ifaces := e.interfaces(bps, m.shootingIntervals())

	e.x0 = growVec(e.x0, dim)
	e.x0.Fill(0)
	for k := 0; k < n; k++ {
		e.x0[statePerChannel*k+idxTC] = e.params.InletTemp
	}
	if cap(e.modes) < 2*n {
		e.modes = make([]mat.Vec, 2*n)
	}
	modes := e.modes[:0]
	if cap(e.term) < 2*n {
		e.term = make([]int, 0, 2*n)
	}
	term := e.term[:0]
	for k := 0; k < n; k++ {
		base := statePerChannel * k
		m1 := make(mat.Vec, dim)
		m1[base+idxT1] = 1
		m2 := make(mat.Vec, dim)
		m2[base+idxT2] = 1
		modes = append(modes, m1, m2)
		term = append(term, base+idxQ1, base+idxQ2)
	}
	e.modes, e.term = modes, term

	sol, err := bvp.SolveWS(&bvp.Problem{
		Dim:    dim,
		Length: e.params.Length,
		Propagate: func(a, b float64, x0 mat.Vec) (*bvp.Trajectory, error) {
			ent, err := e.entry5(channels, a, b)
			if err != nil {
				return nil, err
			}
			return e.propagateExpm(ent, a, b, x0, statePerChannel*len(channels))
		},
		Transition: func(a, b float64) (*mat.Dense, mat.Vec, error) {
			ent, err := e.entry5(channels, a, b)
			if err != nil {
				return nil, nil, err
			}
			return ent.phi, ent.psi, nil
		},
		X0Base:       e.x0,
		X0Modes:      modes,
		TerminalZero: term,
		Interfaces:   ifaces,
	}, &e.ws)
	if err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	return m.newResult(sol), nil
}

// interfaces merges the uniform multiple-shooting grid with the model
// breakpoints so that every shooting interval lies inside one smooth piece
// — the alignment that makes interval transitions memoizable. The result
// is evaluator-owned and overwritten by the next solve.
func (e *Evaluator) interfaces(bps []float64, m int) []float64 {
	L := e.params.Length
	tol := 1e-12 * L
	out := e.ifaces[:0]
	push := func(v float64) {
		if len(out) == 0 || v-out[len(out)-1] > tol {
			out = append(out, v)
		}
	}
	i := 0
	for _, bp := range bps {
		for i <= m {
			u := float64(i) * L / float64(m)
			if i == m {
				u = L
			}
			if u < bp-tol {
				push(u)
				i++
			} else if u <= bp+tol {
				i++ // coincides: the breakpoint value wins
			} else {
				break
			}
		}
		push(bp)
	}
	// breakpoints span [0, L], so pin the endpoints exactly.
	out[0] = 0
	out[len(out)-1] = L
	e.ifaces = out
	return out
}

// keyF appends a float64 to the cache key being built.
func keyF(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// lookup returns the cache entry for the key in e.key, or nil.
func (e *Evaluator) lookup() *pieceEntry {
	if ent, ok := e.cache[string(e.key)]; ok {
		e.stats.TransitionHits++
		return ent
	}
	e.stats.TransitionMisses++
	return nil
}

// store inserts ent under the key in e.key, flushing the cache first when
// it has grown to its bound.
func (e *Evaluator) store(ent *pieceEntry) {
	if len(e.cache) >= maxCacheEntries {
		e.cache = make(map[string]*pieceEntry)
		e.stats.CacheFlushes++
	}
	e.cache[string(e.key)] = ent
}

// pieceSteps5 is the dense sample count of one piece in the 5-state form.
// It rounds up, where pieceSteps4 rounds up only past 0.001 of a sample:
// the two forms' sample grids, and so their results, depend on it.
func (e *Evaluator) pieceSteps5(a, b float64) int {
	n := int(math.Ceil(float64(denseSamples) * (b - a) / e.params.Length))
	if n < 4 {
		n = 4
	}
	return n
}

// entry5 returns the memoized transition of the piece [a, b] for the
// 5-state model, computing and caching it on first sight.
func (e *Evaluator) entry5(channels []Channel, a, b float64) (*pieceEntry, error) {
	n := len(channels)
	mid := 0.5 * (a + b)
	key := e.key[:0]
	key = append(key, '5')
	key = binary.LittleEndian.AppendUint64(key, uint64(n))
	key = keyF(key, a)
	key = keyF(key, b)
	for _, ch := range channels {
		key = keyF(key, ch.Width.At(mid))
		key = keyF(key, ch.flowScale())
		key = keyF(key, ch.FluxTop.At(mid))
		key = keyF(key, ch.FluxBottom.At(mid))
	}
	e.key = key
	if ent := e.lookup(); ent != nil {
		return ent, nil
	}

	dim := statePerChannel * n
	ent := &pieceEntry{pc: pieceCoeffs{
		c:          make([]Coefficients, n),
		fluxTop:    make([]float64, n),
		fluxBottom: make([]float64, n),
	}}
	for k, ch := range channels {
		c, err := e.params.CoefficientsAt(ch.Width.At(mid), mid)
		if err != nil {
			return nil, fmt.Errorf("compact: channel %d piece [%g, %g]: %w", k, a, b, err)
		}
		c.CvV *= ch.flowScale()
		ent.pc.c[k] = c
		ent.pc.fluxTop[k] = ch.FluxTop.At(mid)
		ent.pc.fluxBottom[k] = ch.FluxBottom.At(mid)
	}
	e.buildAug5(ent, n)
	if err := e.expmFinish(ent, a, b, dim, e.pieceSteps5(a, b)); err != nil {
		return nil, fmt.Errorf("compact: piece [%g, %g]: %w", a, b, err)
	}
	e.store(ent)
	return ent, nil
}

// elimDim is the state dimension of the paper's published 4-state form.
const elimDim = 4

// pieceSteps4 is the dense sample count of one piece in the eliminated
// form (see pieceSteps5 for its rounding).
func (e *Evaluator) pieceSteps4(a, b float64) int {
	n := int(float64(denseSamples)*(b-a)/e.params.Length + 0.999)
	if n < 4 {
		n = 4
	}
	return n
}

// rhs4 evaluates the eliminated-form state derivative for one smooth piece.
// Within the piece the cumulative injected heat Qin(z) is affine in z, so
// the piece is fully described by (coefficients, flux densities, Qin at the
// piece start) — exactly the fields memoized in pieceEntry.
func rhs4(ent *pieceEntry, a, tcin float64, homogeneous bool) func(dst mat.Vec, z float64, s mat.Vec) {
	c := ent.c4
	f1, f2 := ent.f1, ent.f2
	fSum := f1 + f2
	qinA := ent.qinA
	if homogeneous {
		f1, f2 = 0, 0
	}
	return func(dst mat.Vec, z float64, s mat.Vec) {
		t1, t2, q1, q2 := s[0], s[1], s[2], s[3]
		var tc float64
		if homogeneous {
			// Homogeneous variant: TCin and Qin are inputs and drop out;
			// the q-feedback remains linear.
			tc = -(q1 + q2) / c.CvV
		} else {
			qin := qinA + fSum*(z-a)
			tc = tcin + (qin-q1-q2)/c.CvV
		}
		dst[0] = -q1 / c.GL
		dst[1] = -q2 / c.GL
		dst[2] = f1 - c.GV*(t1-tc) - c.GW*(t1-t2)
		dst[3] = f2 - c.GV*(t2-tc) - c.GW*(t2-t1)
	}
}

// entry4 returns the memoized transition of the piece [a, b] for the
// eliminated single-channel form, computing and caching it on first sight.
func (e *Evaluator) entry4(ch Channel, a, b float64) (*pieceEntry, error) {
	mid := 0.5 * (a + b)
	qinA := ch.FluxTop.CumulativeTo(a) + ch.FluxBottom.CumulativeTo(a)
	key := e.key[:0]
	key = append(key, '4')
	key = keyF(key, a)
	key = keyF(key, b)
	key = keyF(key, ch.Width.At(mid))
	key = keyF(key, ch.flowScale())
	key = keyF(key, ch.FluxTop.At(mid))
	key = keyF(key, ch.FluxBottom.At(mid))
	key = keyF(key, qinA)
	e.key = key
	if ent := e.lookup(); ent != nil {
		return ent, nil
	}

	c, err := e.params.CoefficientsAt(ch.Width.At(mid), mid)
	if err != nil {
		return nil, fmt.Errorf("compact: piece [%g, %g]: %w", a, b, err)
	}
	c.CvV *= ch.flowScale()
	ent := &pieceEntry{
		c4:   c,
		f1:   ch.FluxTop.At(mid),
		f2:   ch.FluxBottom.At(mid),
		qinA: qinA,
	}

	e.buildAug4(ent, a)
	if err := e.expmFinish(ent, a, b, elimDim, e.pieceSteps4(a, b)); err != nil {
		return nil, fmt.Errorf("compact: piece [%g, %g]: %w", a, b, err)
	}
	e.store(ent)
	return ent, nil
}

// SolveEliminated resolves a single-channel model via the paper's published
// 4-state form (see Model.SolveEliminated for the derivation), reusing
// cached piece transitions and the solver workspace. Results are
// bit-identical to Model.SolveEliminated on an equivalent model.
func (e *Evaluator) SolveEliminated(ch Channel) (*Result, error) {
	m := &e.model
	m.Params, m.Channels = e.params, []Channel{ch}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e.stats.Solves++
	bps := m.breakpoints()
	ifaces := e.interfaces(bps, m.shootingIntervals())

	sol, err := bvp.SolveWS(&bvp.Problem{
		Dim:    elimDim,
		Length: e.params.Length,
		Propagate: func(a, b float64, x0 mat.Vec) (*bvp.Trajectory, error) {
			ent, err := e.entry4(ch, a, b)
			if err != nil {
				return nil, err
			}
			return e.propagateExpm(ent, a, b, x0, elimDim)
		},
		Transition: func(a, b float64) (*mat.Dense, mat.Vec, error) {
			ent, err := e.entry4(ch, a, b)
			if err != nil {
				return nil, nil, err
			}
			return ent.phi, ent.psi, nil
		},
		X0Base:       mat.Vec{0, 0, 0, 0},
		X0Modes:      []mat.Vec{{1, 0, 0, 0}, {0, 1, 0, 0}},
		TerminalZero: []int{2, 3},
		Interfaces:   ifaces,
	}, &e.ws)
	if err != nil {
		return nil, fmt.Errorf("compact: eliminated: %w", err)
	}
	return e.eliminatedResult(ch, sol)
}

// eliminatedResult unpacks an eliminated-form trajectory into a Result,
// reconstructing TC from the elimination identity for reporting.
func (e *Evaluator) eliminatedResult(ch Channel, sol *bvp.Solution) (*Result, error) {
	traj := sol.Trajectory
	nz := len(traj.Z)
	cr := ChannelResult{
		T1: make(mat.Vec, nz),
		T2: make(mat.Vec, nz),
		Q1: make(mat.Vec, nz),
		Q2: make(mat.Vec, nz),
		TC: make(mat.Vec, nz),
	}
	// cv·V̇ does not depend on width; evaluate once.
	c0, err := e.params.CoefficientsAt(ch.Width.At(0), 0)
	if err != nil {
		return nil, err
	}
	c0.CvV *= ch.flowScale()
	tcin := e.params.InletTemp
	for i, x := range traj.X {
		z := traj.Z[i]
		cr.T1[i] = x[0]
		cr.T2[i] = x[1]
		cr.Q1[i] = x[2]
		cr.Q2[i] = x[3]
		qin := ch.FluxTop.CumulativeTo(z) + ch.FluxBottom.CumulativeTo(z)
		cr.TC[i] = tcin + (qin-x[2]-x[3])/c0.CvV
	}
	return &Result{
		Z:                traj.Z.Clone(),
		Channels:         []ChannelResult{cr},
		TerminalResidual: sol.TerminalResidual,
	}, nil
}

func growVec(v mat.Vec, n int) mat.Vec {
	if cap(v) < n {
		return make(mat.Vec, n)
	}
	return v[:n]
}
