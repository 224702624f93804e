package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs: the value
// at rank ceil(p*n/100).
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(percentileRank(len(s), p), 1)-1]
}

func percentileRank(n, p int) int { return (p*n + 99) / 100 }

// tailPercentile returns the highest whole percentile of xs that still
// has at least ten samples above it, with its value. It returns (50,
// median) when there are too few samples for any higher percentile.
func tailPercentile(xs []float64) (pct int, value float64) {
	for p := 99; p > 50; p-- {
		if r := percentileRank(len(xs), p); r >= 1 && len(xs)-r >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 50, median(xs)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durHist is a log-bucketed histogram of nanosecond durations up to ~4 s
// with eight buckets per power of two (about 9% resolution), cheap enough
// to record one sample per policy hook call.
type durHist struct {
	Counts [256]uint64 `json:"counts"`
}

func (h *durHist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	b := int(math.Log2(float64(ns)) * 8)
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b]++
}

func (h *durHist) merge(o *durHist) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
}

func (h *durHist) total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// quantile returns the lower edge of the bucket holding quantile q, in ns.
func (h *durHist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= want {
			return math.Exp2(float64(i) / 8)
		}
	}
	return math.Exp2(float64(len(h.Counts)-1) / 8)
}
