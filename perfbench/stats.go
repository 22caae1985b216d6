package main

import (
	"math"
	"sort"
	"time"
)

// Percentiles are exact order statistics of the recorded samples, taken
// by the nearest-rank rule: the p-th percentile of n sorted samples is
// the sample at rank ceil(p/100·n). Nothing is interpolated and nothing
// comes from bucketed histograms, so a reported percentile is always a
// latency some operation really had.

// tailLadder lists the percentiles op_tail_ms may report, lowest first.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// minBeyond is the number of samples that must lie beyond a percentile
// for it to count as a tail.
const minBeyond = 10

// minTailSamples is the sample count below which only the median is
// reported: with fewer than forty samples no percentile above the
// median leaves ten samples beyond it at a meaningful depth.
const minTailSamples = 40

// rank returns the 1-based nearest rank of percentile p among n samples.
// The small guard keeps a product like 0.999·10000 from rounding up past
// an exact rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples beyond it, and false when n is below
// minTailSamples or no rung qualifies.
func tailPercentile(n int) (float64, bool) {
	if n < minTailSamples {
		return 0, false
	}
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median returns the nearest-rank median of xs (which it sorts in a
// copy).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// medianDuration returns the nearest-rank median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	return s[rank(50, len(s))-1]
}
