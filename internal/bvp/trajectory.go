package bvp

import "repro/internal/mat"

// Trajectory is a dense record of a propagation: states X[i] at grid Z[i].
type Trajectory struct {
	Z mat.Vec   // grid positions, ascending
	X []mat.Vec // state at each grid position
}

// Final returns the state at the last grid point.
func (s *Trajectory) Final() mat.Vec { return s.X[len(s.X)-1] }

// Reset truncates the trajectory to zero grid points, retaining the backing
// storage (including the state vectors hidden in the capacity of X) for
// reuse by Append and AppendCopied.
func (s *Trajectory) Reset() {
	s.Z = s.Z[:0]
	s.X = s.X[:0]
}

// Append appends one grid point with a deep copy of x, reusing state
// vectors retained in the capacity of s.X by an earlier Reset.
func (s *Trajectory) Append(z float64, x mat.Vec) {
	s.Z = append(s.Z, z)
	k := len(s.X)
	if cap(s.X) > k {
		s.X = s.X[:k+1]
		if len(s.X[k]) == len(x) {
			copy(s.X[k], x)
			return
		}
	} else {
		s.X = append(s.X, nil)
	}
	s.X[k] = x.Clone()
}

// AppendCopied appends deep copies of src's states to s, optionally
// skipping src's first grid point (the stitching convention for chained
// piecewise trajectories). State vectors retained in s's capacity by an
// earlier Reset are reused when their length matches, so repeated
// Reset/AppendCopied cycles over same-shaped trajectories allocate nothing.
func (s *Trajectory) AppendCopied(src *Trajectory, skipFirst bool) {
	start := 0
	if skipFirst {
		start = 1
	}
	for i := start; i < len(src.Z); i++ {
		s.Append(src.Z[i], src.X[i])
	}
}
