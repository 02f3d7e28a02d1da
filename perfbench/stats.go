package main

import (
	"math"
	"sort"

	"pathsep/internal/obs"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics. xs is sorted in place; an
// empty slice reports NaN so a missing sample never reads as a zero.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// histQuantile reads the q-quantile of an obs histogram snapshot. The
// registry keeps power-of-two buckets; the quantile is interpolated
// linearly inside the bucket that holds it, clamped to the observed
// min and max.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	target := q * float64(h.Count)
	var cum float64
	prevLe := h.Min
	for _, b := range h.Buckets {
		lo := math.Max(prevLe, h.Min)
		hi := math.Min(b.Le, h.Max)
		if cum+float64(b.Count) >= target {
			if b.Count == 0 || hi <= lo {
				return hi
			}
			return lo + (target-cum)/float64(b.Count)*(hi-lo)
		}
		cum += float64(b.Count)
		prevLe = b.Le
	}
	return h.Max
}
