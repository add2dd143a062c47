package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("empty sample must be NaN so a missing metric cannot read as 0")
	}
}

func TestRatioOfNothingIsZero(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Errorf("ratio(3,0)=%v ratio(1,4)=%v", ratio(3, 0), ratio(1, 4))
	}
}
