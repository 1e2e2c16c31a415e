package main

import (
	"testing"
	"time"
)

// TestPercentileNearestRank holds percentile to the nearest-rank definition:
// the ⌈p/100 · n⌉-th smallest of n sorted values, clamped to [1, n].
func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		rank int // 1-based; 0 = empty input
	}{
		{0, 50, 0},
		{1, 0, 1},
		{1, 50, 1},
		{1, 99.9, 1},
		{7, 30, 3}, // 2.1 rounds to the 2nd, but nearest-rank takes the 3rd
		{7, 50, 4},
		{10, 100, 10},
		{100, 50, 50},
		{100, 99, 99},
		{300, 99, 297},
		{1000, 99.9, 999}, // 99.9/100·1000 exceeds 999 in floating point
		{1600, 50, 800},
		{1600, 99, 1584},
		{1600, 99.9, 1599},
		{10000, 99.9, 9990},
	} {
		sorted := make([]time.Duration, tc.n)
		for i := range sorted {
			sorted[i] = time.Duration(i + 1)
		}
		if got := percentile(sorted, tc.p); got != time.Duration(tc.rank) {
			t.Errorf("n=%d p=%v: got rank %d, want %d", tc.n, tc.p, got, tc.rank)
		}
	}
}
