package main

import (
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 1},       // too few for any rung: the maximum
		{99, 1},      // p90 would leave 9 beyond
		{100, 0.9},   // p90 leaves exactly 10
		{999, 0.9},   // p99 would leave 9
		{1000, 0.99}, // p99 leaves exactly 10
		{8046, 0.99},
		{10000, 0.999},
		{100000, 0.9999},
	}
	for _, c := range cases {
		q := tailPercentile(c.n)
		if q != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, q, c.want)
		}
		if q < 1 {
			sorted := make([]float64, c.n)
			for i := range sorted {
				sorted[i] = float64(i)
			}
			v := quantile(sorted, q)
			beyond := 0
			for _, x := range sorted {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d q=%g: %d samples beyond, want >= %d", c.n, q, beyond, minBeyond)
			}
		}
	}
}

func TestSummarizeReportsTailWithItsPercentile(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 1000; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	s := summarize(d)
	if s.P50 != 500*time.Millisecond || s.TailQ != 0.99 || s.Tail != 990*time.Millisecond {
		t.Fatalf("summarize: p50=%s tail=%s at %g", s.P50, s.Tail, s.TailQ)
	}
	if percentileLabel(s.TailQ) != "p99" || percentileLabel(0.999) != "p99.9" || percentileLabel(1) != "max" {
		t.Fatalf("labels: %s %s %s", percentileLabel(s.TailQ), percentileLabel(0.999), percentileLabel(1))
	}
}

func TestWindowedTailIsMedianOverWindows(t *testing.T) {
	// Eight windows of 1000 operations: 1..1000 ms each, so every
	// window's p99 is 990 ms.
	var d []time.Duration
	for w := 0; w < 8; w++ {
		for i := 1; i <= 1000; i++ {
			d = append(d, time.Duration(i)*time.Millisecond)
		}
	}
	// A stall in one window puts 30 slow operations beyond its p99;
	// over the whole run they alone would set the p99.9.
	for i := 0; i < 30; i++ {
		d[3000+i] = 5 * time.Second
	}
	if tail, k := windowedTail(d, 0.99); k != 8 || tail != 990*time.Millisecond {
		t.Fatalf("p99 tail %s over %d windows, want 990ms over 8", tail, k)
	}
	// Each window keeps ten samples beyond the quantile: 2000
	// operations give two windows at p99, one at p99.9.
	if _, k := windowedTail(d[:2000], 0.99); k != 2 {
		t.Fatalf("2000 operations at p99: %d windows, want 2", k)
	}
	if _, k := windowedTail(d[:2000], 0.999); k != 1 {
		t.Fatalf("2000 operations at p99.9: %d windows, want 1", k)
	}
	// The maximum is taken over the whole run.
	if tail, k := windowedTail(d[:5], 1); k != 1 || tail != 5*time.Millisecond {
		t.Fatalf("max of five: %s over %d windows", tail, k)
	}
}
