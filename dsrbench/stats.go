package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample. xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	h := p * float64(len(xs)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(xs) || xs[lo+1] == xs[lo] {
		return xs[lo] // also keeps +Inf (a failed request) from turning into NaN
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// midMean returns the interquartile mean: the mean of the middle half
// of xs, which drops a run's stalled and lucky windows alike but uses
// more of the sample than the median does. NaN for an empty sample. xs
// is sorted in place.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := len(xs) / 4
	return mean(xs[k : len(xs)-k])
}

// maxWindows caps how many windows windowed splits a sample into.
const maxWindows = 16

// windowed splits xs, in arrival order, into consecutive windows of at
// least minLen samples (at most maxWindows of them), takes the
// p-quantile of each window, and returns the q-quantile of those. On a
// shared machine neighbour load comes in episodes that slow some
// windows of a run and not others; a low q for latencies (a high one
// for throughputs) reports the windows with the fewest such episodes,
// which is what a change to the code moves. xs is left unchanged.
func windowed(xs []float64, p float64, minLen int, q float64) float64 {
	w := min(max(len(xs)/minLen, 1), maxWindows)
	per := make([]float64, w)
	for i := range per {
		win := append([]float64(nil), xs[i*len(xs)/w:(i+1)*len(xs)/w]...)
		per[i] = quantile(win, p)
	}
	return quantile(per, q)
}
