package bvp

import (
	"testing"

	"repro/internal/mat"
)

func TestAppendCopiedStitching(t *testing.T) {
	decay := &linearODE{dim: 1, coeffs: func(a *mat.Dense, _ mat.Vec, _ float64) { a.Set(0, 0, -1) }}
	a := decay.rk4(0, 1, mat.Vec{1}, 10, true)
	b := decay.rk4(1, 2, a.Final(), 10, true)
	full := &Trajectory{}
	full.AppendCopied(a, false)
	full.AppendCopied(b, true)
	if len(full.Z) != 21 {
		t.Fatalf("stitched grid size %d, want 21", len(full.Z))
	}
	if full.Z[10] != 1 || full.X[10][0] != a.Final()[0] {
		t.Fatal("stitch point mismatch")
	}
	// Reset + refill reuses the retained vectors: mutate the source and
	// confirm the stitched copy is deep.
	full.Reset()
	full.AppendCopied(a, false)
	a.X[0][0] = 999
	if full.X[0][0] == 999 {
		t.Fatal("AppendCopied stored a view, not a copy")
	}
}
