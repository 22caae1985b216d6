package mat

import (
	"fmt"
	"testing"
)

// stiffPair returns a stable n×n generator with ‖a‖∞ ≈ 30 + n (three
// or four squarings) and a direction e with ‖e‖∞ = ratio·‖a‖∞. A width
// direction of the compact model is of this kind: ∂Ã/∂w is taken per
// metre of a width that is tens of µm, so its norm dwarfs the
// generator's.
func stiffPair(n int, ratio float64) (a, e *Dense) {
	g := lcg(uint64(1000 + n))
	a = randDense(&g, n, 2)
	for i := 0; i < n; i++ {
		a.Add(i, i, -30)
	}
	e = randDense(&g, n, 1)
	s := ratio * a.NormInf() / e.NormInf()
	for i := range e.data {
		e.data[i] *= s
	}
	return a, e
}

// BenchmarkExpm times a warm workspace exponential (warmed before the
// timer, so -benchtime 1x reports the warm allocations).
func BenchmarkExpm(b *testing.B) {
	for _, n := range []int{6, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a, _ := stiffPair(n, 1)
			var ws ExpmWS
			dst := NewDense(n, n)
			if _, err := ws.Expm(dst, a); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Expm(dst, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrechet times a warm workspace exponential with its Fréchet
// derivative in a direction 10⁴ times the generator's norm. n = 6 is the
// eliminated single-channel piece (4 states + 2 augmentation rows), 12
// and 22 are coupled two- and four-channel pieces.
func BenchmarkFrechet(b *testing.B) {
	for _, n := range []int{6, 12, 22} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a, e := stiffPair(n, 1e4)
			var ws ExpmWS
			ex, l := NewDense(n, n), NewDense(n, n)
			if _, _, err := ws.Frechet(ex, l, a, e); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ws.Frechet(ex, l, a, e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
