package main

import (
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile of sorted values
// (0 when empty).
func percentile[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the median of vals without reordering the caller's slice
// (0 when empty; the mean of the middle pair for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) computes them (exclusive method), which
// is what the driver uses for a metric's run-to-run spread.
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
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	if s := (q3 - q1) / m; s >= 0 {
		return s
	}
	return (q1 - q3) / m
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
func us(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }

// timeCalls runs fn n times and returns the median duration of one call in
// nanoseconds, timing batches so the clock read does not dominate a
// sub-microsecond call.
func timeCalls(n, batch int, fn func(i int)) float64 {
	if batch < 1 {
		batch = 1
	}
	var per []float64
	for i := 0; i < n; i += batch {
		end := i + batch
		if end > n {
			end = n
		}
		t0 := time.Now()
		for j := i; j < end; j++ {
			fn(j)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(end-i))
	}
	return median(per)
}
