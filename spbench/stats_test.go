package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		vals []float64
		q    float64
		want float64
	}{
		{[]float64{5}, 0.5, 5},
		{[]float64{1, 2, 3}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5}, // unsorted input, even count
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{10, 20}, 0.99, 19.9},
	}
	for _, c := range cases {
		if got := quantile(c.vals, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.vals, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no values should be NaN")
	}
}

func TestQuantileLeavesInputUnsorted(t *testing.T) {
	v := []float64{3, 1, 2}
	quantile(v, 0.5)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Errorf("quantile reordered its input: %v", v)
	}
}

func TestMedianAndP99(t *testing.T) {
	var s samples
	for i := 1; i <= 101; i++ {
		s = append(s, float64(i))
	}
	if s.p50() != 51 {
		t.Errorf("p50 = %v, want 51", s.p50())
	}
	if math.Abs(s.p99()-100) > 1e-9 {
		t.Errorf("p99 = %v, want 100", s.p99())
	}
}
