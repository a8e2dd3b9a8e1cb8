package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail latency is chosen from.
// A fixed ladder keeps the reported percentile the same from run to run
// while the sample count stays within one decade.
var tailLadder = []float64{0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported as the tail.
const minBeyond = 10

// maxTailWindows bounds how many consecutive windows a run's
// end-to-end tail is the median of (see windowedTail).
const maxTailWindows = 8

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile picks the highest percentile of the ladder that has at
// least minBeyond of n samples beyond its rank. With too few samples for
// any rung it returns 1, the maximum.
func tailPercentile(n int) float64 {
	best := 1.0
	for _, q := range tailLadder {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= minBeyond {
			best = q
		}
	}
	return best
}

// percentileLabel renders a quantile as "p99" or "p99.9"; 1 is "max".
func percentileLabel(q float64) string {
	if q >= 1 {
		return "max"
	}
	return "p" + trimFloat(q*100)
}

func trimFloat(v float64) string {
	return fmt.Sprintf("%g", math.Round(v*1e6)/1e6)
}

// latencySummary is the median and the tail of a set of latencies.
type latencySummary struct {
	N        int
	P50      time.Duration
	Tail     time.Duration
	TailQ    float64
	Mean     time.Duration
	Max      time.Duration
	Percents string // human form, e.g. "p50=1.2ms p99=4.1ms (n=8012)"
}

func summarize(d []time.Duration) latencySummary {
	s := latencySummary{N: len(d)}
	if len(d) == 0 {
		return s
	}
	v := durationsMs(d)
	sort.Float64s(v)
	s.TailQ = tailPercentile(len(v))
	s.P50 = msDuration(quantile(v, 0.5))
	s.Tail = msDuration(quantile(v, s.TailQ))
	s.Max = msDuration(v[len(v)-1])
	var sum float64
	for _, x := range v {
		sum += x
	}
	s.Mean = msDuration(sum / float64(len(v)))
	s.Percents = fmt.Sprintf("p50=%s %s=%s max=%s (n=%d)", s.P50, percentileLabel(s.TailQ), s.Tail, s.Max, s.N)
	if s.TailQ == 1 {
		s.Percents = fmt.Sprintf("p50=%s max=%s (n=%d; too few samples for a percentile with %d beyond)", s.P50, s.Max, s.N, minBeyond)
	}
	return s
}

// windowedTail is a run's end-to-end tail latency: the q-quantile of d,
// taken in each of up to maxTailWindows consecutive windows of d (in
// order of operations) that still hold minBeyond samples beyond it, and
// the median of those. A tail set by ten-odd samples of a whole run is
// as much the host's few scheduling stalls as the program; the median
// of the windows' tails is not moved by a stall in one of them. q is
// fixed per workload, so how many operations a run completes never
// changes which percentile it reports.
func windowedTail(d []time.Duration, q float64) (tail time.Duration, windows int) {
	windows = max(1, min(maxTailWindows, int(float64(len(d))*(1-q))/minBeyond))
	tails := make([]time.Duration, 0, windows)
	for i := 0; i < windows; i++ {
		v := durationsMs(d[i*len(d)/windows : (i+1)*len(d)/windows])
		sort.Float64s(v)
		tails = append(tails, msDuration(quantile(v, q)))
	}
	return medianDuration(tails), windows
}

func durationsMs(d []time.Duration) []float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = ms(x)
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msDuration(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	v := durationsMs(d)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return msDuration(v[n/2])
	}
	return msDuration((v[n/2-1] + v[n/2]) / 2)
}

func meanDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}
