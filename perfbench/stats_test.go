package main

import (
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 0, false},
		{39, 0, false},
		{40, 75, true},   // 10 of 40 beyond p75
		{99, 75, true},   // p90 would leave 9
		{100, 90, true},  // 10 beyond p90
		{1000, 99, true}, // 10 beyond p99
		{1350, 99, true}, // 13 beyond p99; p99.9 would leave 1
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(got, tc.n) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%g leaves %d beyond", tc.n, got, tc.n-rank(got, tc.n))
		}
	}
}

func TestPercentilesAreOrderStatistics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {75, 8}, {90, 9}, {99, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want the sample %g", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2 {
		t.Errorf("median = %g, want the nearest-rank sample 2", got)
	}
}

func TestTailFallsBackToMedianBelowForty(t *testing.T) {
	o := &outcome{closedOps: 3, closedWall: time.Second}
	for i := 1; i <= 39; i++ {
		o.latencies = append(o.latencies, time.Duration(i)*time.Millisecond)
	}
	m := o.endToEnd()
	if m["op_tail_ms"] != m["op_p50_ms"] || m["op_p50_ms"] != 20 {
		t.Errorf("39 samples: p50 %g, tail %g; want both the median 20", m["op_p50_ms"], m["op_tail_ms"])
	}
	o.latencies = append(o.latencies, 40*time.Millisecond)
	if m := o.endToEnd(); m["op_tail_ms"] != 30 {
		t.Errorf("40 samples: tail %g, want p75 = 30", m["op_tail_ms"])
	}
}
