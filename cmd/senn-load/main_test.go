package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
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

// A session whose dial fails is counted, as an error and as a dial error,
// and the run goes on: here every dial fails, against a server that reports
// its bounds but refuses the query channel.
func TestDialFailuresCounted(t *testing.T) {
	stats := []byte(`{"bounds_min_x": 0, "bounds_min_y": 0, "bounds_max_x": 1000, "bounds_max_y": 1000}`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stats" {
			http.NotFound(w, r)
			return
		}
		w.Write(stats)
	}))
	defer srv.Close()
	doc, err := run(config{addr: strings.TrimPrefix(srv.URL, "http://"), sessions: 3, duration: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Load.DialErrors != 3 || doc.Load.Errors != 3 || doc.Load.Queries != 0 {
		t.Fatalf("dial_errors = %d, errors = %d, queries = %d; want 3, 3, 0", doc.Load.DialErrors, doc.Load.Errors, doc.Load.Queries)
	}
}
