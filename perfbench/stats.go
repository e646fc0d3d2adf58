package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the percentile ladder tailPercentile climbs.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// ceil(p/100*n); the epsilon keeps float error (99.9*10000/100 is not
// exactly 9990) from moving it up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond returns how many of n sorted samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, and false when even the median has
// fewer (n < 20).
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 50th percentile of xs (any order).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// fastQuartile picks the faster quartile of per-window figures: the 75th
// percentile of rates (higherIsFaster) or the 25th of latencies. Other
// guests on a shared host only ever slow a window down, and on the
// reference VM (steal 0.5–10% of CPU time per run) the faster quartile of
// window rates spread 0.10 across ten runs where the median spread 0.17.
func fastQuartile(xs []float64, higherIsFaster bool) float64 {
	if higherIsFaster {
		return percentile(sortedCopy(xs), 75)
	}
	return percentile(sortedCopy(xs), 25)
}

// windowPercentiles splits samples (in arrival order) into consecutive
// windows of size n, dropping a partial last window, and returns each
// window's p-th percentile.
func windowPercentiles(samples []float64, n int, p float64) []float64 {
	var out []float64
	for i := 0; i+n <= len(samples); i += n {
		out = append(out, percentile(sortedCopy(samples[i:i+n]), p))
	}
	return out
}

// dueNanos is the offset from the open loop's start at which the i-th
// message of a fixed-rate schedule is due. Integer arithmetic keeps the
// schedule exact however long the run.
func dueNanos(i uint64, ratePerSec int) int64 {
	return int64(i * uint64(time.Second) / uint64(ratePerSec))
}

// sinceDue is how long after its due time an event at offset at (from
// the same start) happened; a negative value means it ran early.
func sinceDue(at int64, i uint64, ratePerSec int) time.Duration {
	return time.Duration(at - dueNanos(i, ratePerSec))
}

// ratio divides two counter deltas, returning 0 when the base is zero (a
// layer the workload never exercised) instead of NaN or Inf.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// delta is after minus before for a monotonic counter; a counter that went
// backwards (a restarted source) yields 0 rather than wrapping.
func delta(after, before uint64) uint64 {
	if after < before {
		return 0
	}
	return after - before
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
