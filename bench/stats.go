package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted,
// which must be ascending and non-empty: the smallest value with at least
// p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of v (mean of the two middle values for
// an even count) without reordering the caller's slice; 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// segments counts events into equal, consecutive slices of a phase, so a
// rate can be reported as the median over the slices: one stall then costs
// one slice, not the whole figure.
type segments struct {
	width  float64 // seconds per segment
	counts []int64
}

func newSegments(n int, total float64) *segments {
	return &segments{width: total / float64(n), counts: make([]int64, n)}
}

// add records one event at offset seconds after the phase began. Events
// past the last segment (a request in flight when the phase ended) are
// dropped: they belong to no full segment.
func (s *segments) add(offset float64) {
	if i := int(offset / s.width); offset >= 0 && i < len(s.counts) {
		s.counts[i]++
	}
}

// medianRate is the median per-second rate over the segments.
func (s *segments) medianRate() float64 {
	rates := make([]float64, len(s.counts))
	for i, c := range s.counts {
		rates[i] = float64(c) / s.width
	}
	return median(rates)
}
