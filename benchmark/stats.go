package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for it to
// be reported: with fewer, the value is one noisy sample, not a percentile.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an ascending slice; 0 when empty.
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the nearest-rank p-th percentile (0 < p < 1) of an
// ascending slice and how many samples lie beyond it; 0 when empty.
func nearestRank(s []float64, p float64) (v float64, beyond int) {
	n := len(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		return 0, 0
	}
	return s[rank-1], n - rank
}

// percentile is nearestRank for reported tail latencies: ok is false — and
// the value 0 — when fewer than minBeyond samples lie beyond it.
func percentile(s []float64, p float64) (v float64, ok bool) {
	v, beyond := nearestRank(s, p)
	if beyond < minBeyond {
		return 0, false
	}
	return v, true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is the distance between the first and third quartile as a share of
// the median — the steadiness measure the benchmark contract uses. It needs
// at least two values; the quartiles follow Python's
// statistics.quantiles(xs, n=4) (exclusive method).
func spread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
