package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles the tail rule may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for timings: the highest
// percentile of the ladder that has at least ten samples beyond it, given n
// samples. It returns 0 when even the median has fewer than ten beyond it
// (n < 20). With the nearest-rank definition used by percentile, the sample
// at rank ceil(p/100*n) is the reported one and n minus that rank lie beyond.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 0.999*10000 must rank 9990, not 9991
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (0 for no
// samples). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// median is the midpoint of xs (mean of the two middle values for an even
// count), 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts operations against attempts. An operation is one simulation
// in the simulation workloads and one job or campaign point in zsimd-sweep;
// any error, stall, signature mismatch, non-2xx answer or failed job is a
// failure.
type tally struct {
	attempted, failed int
}

// record counts one attempted operation, failed unless ok.
func (t *tally) record(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// share is the failed fraction of attempts (0 when nothing was attempted).
func (t tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// ratio divides, returning 0 for a zero base: per-layer ratios whose base
// work does not occur in a workload (weave events on a contention-off chip,
// campaign points outside zsimd-sweep) read 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
