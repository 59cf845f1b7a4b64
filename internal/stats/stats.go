// Package stats provides average-case analysis of the consensus protocols
// under randomized fault injection.
//
// The paper's practical argument (Section 2.2) leans on failures being rare:
// "f = 0 and f = 1 are the most common values". This package quantifies that
// argument by sweeping crash probabilities and measuring the distribution of
// decision rounds, message counts and decision times across seeds — the
// expected-case companion to the worst-case theorems (experiment E11).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Sample accumulates observations of one scalar metric. A Sample is not safe
// for concurrent use.
type Sample struct {
	values  []float64
	scratch []float64 // Percentile's selection buffer, reused across calls
}

// Add records one observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 {
	if len(s.values) < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(s.values)))
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	max := 0.0
	for i, v := range s.values {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest rank:
// the ceil(p/100·N)-th smallest observation, the smallest for p <= 0 and the
// largest for p >= 100. Observations are ordered as sort.Float64s orders
// them (NaN first; -0 and +0 are equal, so either may be returned). It
// returns 0 for an empty sample and NaN for a NaN p.
//
// The observation is found by selection, in expected linear time and
// O(N log N) at worst, on a copy held in a buffer the Sample reuses across
// calls. Like Add, Percentile therefore writes to the Sample and is not safe
// for concurrent use.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	switch {
	case math.IsNaN(p):
		return math.NaN()
	case n == 0:
		return 0
	}
	rank := n - 1
	if p <= 0 {
		rank = 0
	} else if p < 100 {
		rank = max(int(math.Ceil(p/100*float64(n)))-1, 0)
	}
	x := append(s.scratch[:0], s.values...)
	s.scratch = x
	// NaNs come first in cmp.Less order: gather them at the front, so the
	// selection over the rest can compare with plain <.
	nans := 0
	for i, v := range x {
		if v != v {
			x[i], x[nans] = x[nans], v
			nans++
		}
	}
	if rank < nans {
		return math.NaN()
	}
	return selectRank(x[nans:], rank-nans)
}

// selectRank reorders x, which must hold no NaN, so that x[k] holds the
// element slices.Sort would place there, and returns it. It is an
// introselect: Hoare-partition quickselect around a median-of-three pivot
// that sorts the remaining range once about 2·log₂(len(x)) partitions have
// not narrowed it to a few elements, bounding the worst case at O(n log n).
func selectRank(x []float64, k int) float64 {
	lo, hi := 0, len(x) // x[k] lies in x[lo:hi]
	for budget := 2 * bits.Len(uint(len(x))); hi-lo > 12 && budget > 0; budget-- {
		// Order x[lo] <= x[mid] <= x[hi-1]: the ends then bound both scans.
		mid := lo + (hi-lo)/2
		if x[mid] < x[lo] {
			x[mid], x[lo] = x[lo], x[mid]
		}
		if x[hi-1] < x[lo] {
			x[hi-1], x[lo] = x[lo], x[hi-1]
		}
		if x[hi-1] < x[mid] {
			x[hi-1], x[mid] = x[mid], x[hi-1]
		}
		pivot := x[mid]
		i, j := lo, hi-1
		for i <= j {
			for x[i] < pivot {
				i++
			}
			for pivot < x[j] {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		// Now x[lo:j+1] <= pivot <= x[i:hi], and anything between equals
		// the pivot.
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return x[k]
		}
	}
	slices.Sort(x[lo:hi])
	return x[k]
}

// String renders mean ± stddev (max).
func (s *Sample) String() string {
	return fmt.Sprintf("%.2f±%.2f (max %.0f)", s.Mean(), s.StdDev(), s.Max())
}

// Histogram counts integer-valued observations.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{counts: map[int]int{}} }

// Add records one observation.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.total++
}

// Count returns the number of observations equal to v.
func (h *Histogram) Count(v int) int { return h.counts[v] }

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// Fraction returns the share of observations equal to v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// Keys returns the observed values in increasing order.
func (h *Histogram) Keys() []int {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// String renders "v:count" pairs in order.
func (h *Histogram) String() string {
	out := ""
	for i, k := range h.Keys() {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d:%d", k, h.counts[k])
	}
	return out
}
