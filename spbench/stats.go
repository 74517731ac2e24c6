package main

import (
	"math"
	"sort"
)

// samples collects one operation class's latencies in microseconds.
type samples []float64

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the two closest ranks of the sorted values, the method of
// numpy's default and of Python's statistics.quantiles(method="inclusive").
// It returns NaN for an empty set.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func (s samples) p50() float64 { return quantile(s, 0.5) }
func (s samples) p99() float64 { return quantile(s, 0.99) }
