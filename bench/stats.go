package main

import (
	"math"
	"sort"
)

// percentile returns the p'th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest value with at least p % of the
// samples at or below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[percentileRank(len(sorted), p)-1]
}

// percentileRank is the 1-based nearest rank of the p'th percentile
// among n samples. The epsilon keeps 90 % of 100 at rank 90 whatever the
// floating-point product rounds to.
func percentileRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailPercentiles are the candidates for "the highest percentile worth
// reporting".
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile returns the highest of tailPercentiles that still
// has at least ten of n samples beyond it; below that a percentile is
// one or two outliers, not a property of the system. ok is false when
// even the median does not qualify.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n-percentileRank(n, c) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) does (the default "exclusive"
// method), which is what the acceptance check of this benchmark is
// stated in. It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i = 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
