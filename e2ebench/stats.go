package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile: fewer make the percentile a statement about one or two
// requests.
const tailBeyond = 10

// tail is a latency percentile with the evidence behind it.
type tail struct {
	Pct   float64 `json:"percentile"` // e.g. 99 for p99
	Value float64 `json:"value"`
	N     int     `json:"samples"`
}

// tailPercentile returns the highest percentile, at most p99 and in whole
// percent, with at least tailBeyond samples strictly above it. ok is false
// when there are too few samples for any such percentile.
func tailPercentile(values []float64) (t tail, ok bool) {
	n := len(values)
	if n <= tailBeyond {
		return tail{N: n}, false
	}
	pct := math.Floor(100 * float64(n-tailBeyond) / float64(n))
	if pct > 99 {
		pct = 99
	}
	if pct < 1 {
		return tail{N: n}, false
	}
	s := sortedCopy(values)
	// The rank-ceil(pct·n/100) sample (1-based) has n-rank ≥ tailBeyond
	// samples after it, because pct·n/100 ≤ n-tailBeyond.
	rank := int(math.Ceil(pct * float64(n) / 100))
	return tail{Pct: pct, Value: s[rank-1], N: n}, true
}

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks, the same rule as Python's statistics.quantiles
// "inclusive" method.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
