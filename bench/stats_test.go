package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.5, 50},  // ceil(5) = 5th value
		{0.51, 60}, // ceil(5.1) = 6th
		{0.9, 90},
		{0.99, 100},
		{1, 100},
		{0, 10},
	} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, // 10 samples beyond p99.9
		{9999, 0.99},   // only 9 beyond p99.9
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{199, 0.9},
		{100, 0.9},
		{40, 0.75},
		{39, 0.5},
		{1, 0.5},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supported(999, 0.99) || !supported(1000, 0.99) || !supported(1, 0.5) || supported(0, 0.5) {
		t.Error("supported disagrees with the ten-samples-beyond rule")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), the spread definition the
// benchmark's bounds are checked against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
