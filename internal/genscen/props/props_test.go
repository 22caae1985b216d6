package props

import (
	"slices"
	"testing"

	"repro/internal/genscen"
)

// A planted error in one adjoint entry must be caught by the full check
// wherever the step ladder alone catches it: the least-squares fallback
// may validate an adjoint that every rung's noise or truncation hides,
// but it must never accept an entry the ladder rejected because it was
// wrong. The planted entry is the first probed one (channel 0, width
// segment 0), whose size relative to the gradient's inf-norm varies by
// seed, so each factor is caught on a different share of the corpus.
func TestPlantedGradientErrors(t *testing.T) {
	seeds := plantedSeeds
	if testing.Short() {
		seeds = 20
	}
	factors := []float64{1.002, 0.998, 1.005, 1.02}
	caught := make([]int, len(factors))
	tol := Default()
	for seed := int64(0); seed < int64(seeds); seed++ {
		f, err := genscen.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, err := newGradientProbe(f)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		grad, err := p.adjoint()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k, factor := range factors {
			g := slices.Clone(grad)
			g[0] *= factor
			vs, err := p.check(g, tol)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !vs[0].ok {
				caught[k]++
			}
			if vs[0].byFit {
				t.Errorf("seed %d: adjoint entry ×%g accepted by a least-squares fit the ladder overruled: %.8e vs FD %.8e (diff %.2e of scale %.2e)",
					seed, factor, g[0], vs[0].fd, vs[0].diff, vs[0].scale)
			}
		}
	}
	for k, factor := range factors {
		t.Logf("×%g planted in one entry: caught on %d of %d seeds", factor, caught[k], seeds)
	}
}
