package main

import (
	"math"
	"slices"
	"sort"
)

// measured is one reported number with the count of samples behind it
// (slices, windows, batches or latencies, as the metric's row says).
type measured struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// because that is the rule the acceptance driver applies to the runs.
// Fewer than two values have no spread: all three are the value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the inter-quartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// percentileNs returns the nearest-rank p-th percentile (0 < p <= 1) of
// sorted.
func percentileNs(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// tailPercentile picks the highest of p50, p90, p99, p99.9, … that
// still has at least ten of the n samples beyond it — the point past
// which a "tail" is a handful of outliers, not a distribution.
func tailPercentile(n int) float64 {
	best := 0.5
	for beyond := 10; beyond <= 100000; beyond *= 10 { // one sample in `beyond` lies past the percentile
		if n >= 10*beyond {
			best = 1 - 1/float64(beyond)
		}
	}
	return best
}

// windowPercentiles sorts each window of lat in place and returns the
// median over windows of its p50 and p99, plus the percentile
// tailPercentile allows over all samples. Reporting the median window
// keeps one scheduler hiccup from deciding a run's tail.
func windowPercentiles(windows [][]uint32) (p50, p99, tail, tailP float64, n int) {
	var p50s, p99s []float64
	var all []uint32
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		slices.Sort(w)
		p50s = append(p50s, percentileNs(w, 0.5))
		p99s = append(p99s, percentileNs(w, 0.99))
		all = append(all, w...)
	}
	slices.Sort(all)
	tailP = tailPercentile(len(all))
	return median(p50s), median(p99s), percentileNs(all, tailP), tailP, len(all)
}
