package compact

import (
	"fmt"
)

// SolveEliminated resolves a single-channel model using the paper's
// published 4-state form (Eq. 3/4): the coolant temperature is eliminated
// through global energy conservation,
//
//	TC(z) = TCin + [Qin(z) − q1(z) − q2(z)] / (cv·V̇),
//
// where Qin(z) = ∫₀ᶻ (q̂i1 + q̂i2) dz′ is the cumulative injected heat.
// This identity follows from integrating the two layer heat balances and
// the coolant advection equation with q(0) = 0 and adiabatic outer
// surfaces, and is exactly what lets the paper write a 4-state model
// X = [T1 T2 q1 q2] with G(q̂i, TCin) carrying the inputs.
//
// The result is mathematically identical to Solve on a 1-channel model;
// the tests cross-check the two. It exists (a) as a faithful transcription
// of the paper's equations and (b) because the 4-state form is ~20% cheaper
// inside optimization loops for single-channel studies.
//
// Like Solve, it delegates to a fresh Evaluator; optimization loops hold a
// warm Evaluator instead and get bit-identical results with piece
// transitions and solver scratch amortized across solves.
func (m *Model) SolveEliminated() (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(m.Channels) != 1 {
		return nil, fmt.Errorf("compact: eliminated form requires exactly 1 channel, have %d",
			len(m.Channels))
	}
	return NewEvaluator(m.Params).SolveEliminated(m.Channels[0])
}
