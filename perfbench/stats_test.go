package main

import (
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median has only 9 samples beyond it
		{20, 50, true},
		{99, 50, true}, // p90 rank 90 leaves 9
		{100, 90, true},
		{999, 90, true}, // p99 rank 990 leaves 9
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	rates := []float64{40, 10, 30, 20} // any order
	if got := fastQuartile(rates, true); got != 30 {
		t.Errorf("fast quartile of rates = %v, want 30", got)
	}
	if got := fastQuartile(rates, false); got != 10 {
		t.Errorf("fast quartile of latencies = %v, want 10", got)
	}
}

func TestWindowPercentilesDropsPartialWindow(t *testing.T) {
	var xs []float64
	for i := 0; i < 2500; i++ {
		xs = append(xs, float64(i%1000)) // each full window holds 0..999
	}
	p50s, p99s := windowPercentiles(xs, 1000, 50), windowPercentiles(xs, 1000, 99)
	if len(p50s) != 2 || len(p99s) != 2 {
		t.Fatalf("got %d windows, want 2", len(p50s))
	}
	for i := range p50s {
		if p50s[i] != 499 || p99s[i] != 989 {
			t.Errorf("window %d: p50 %v p99 %v, want 499 and 989", i, p50s[i], p99s[i])
		}
	}
}

func TestDueTimeLatencyAndLateness(t *testing.T) {
	const rate = 8000 // one message every 125µs
	if got := dueNanos(0, rate); got != 0 {
		t.Errorf("message 0 due at %d", got)
	}
	if got := time.Duration(dueNanos(8000, rate)); got != time.Second {
		t.Errorf("message 8000 due at %v, want 1s", got)
	}
	// Message 8 is due at 1ms; sent at 1.2ms it ran 200µs late, and
	// received at 1.5ms its latency counts from the due time: 500µs.
	if got := sinceDue(int64(1200*time.Microsecond), 8, rate); got != 200*time.Microsecond {
		t.Errorf("lateness = %v, want 200µs", got)
	}
	if got := sinceDue(int64(1500*time.Microsecond), 8, rate); got != 500*time.Microsecond {
		t.Errorf("latency = %v, want 500µs", got)
	}
	// A generator that stalls delays every message queued behind the stall:
	// message 80 (due 10ms) sent at 30ms is 20ms late, not 0.
	if got := sinceDue(int64(30*time.Millisecond), 80, rate); got != 20*time.Millisecond {
		t.Errorf("stalled lateness = %v, want 20ms", got)
	}
	if got := sinceDue(int64(900*time.Microsecond), 8, rate); got != -100*time.Microsecond {
		t.Errorf("early send = %v, want -100µs", got)
	}
	// The schedule stays exact over long runs (no accumulated rounding).
	if got := dueNanos(3*3600*rate, rate); got != int64(3*time.Hour) {
		t.Errorf("message due after 3h at %v", time.Duration(got))
	}
}

func TestCounterRatiosWithZeroBase(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio(6, 3) = %v, want 2", got)
	}
	if got := delta(10, 4); got != 6 {
		t.Errorf("delta(10, 4) = %v", got)
	}
	if got := delta(3, 7); got != 0 {
		t.Errorf("delta of a counter that went backwards = %v, want 0", got)
	}
	// A layer the workload never exercised: zero deltas on both sides.
	before := brokerTotals{walAppends: 100, walFsyncs: 4}
	d := before.to(before)
	if got := ratio(float64(d.walAppends), float64(d.walFsyncs)); got != 0 {
		t.Errorf("appends per fsync over an idle WAL = %v, want 0", got)
	}
}

func TestSumsDetectMissingRepeatedAndSubstitutedIDs(t *testing.T) {
	var want, same, missing, repeated, swapped sums
	for _, id := range []uint32{3, 9, 27} {
		want.add(id)
	}
	for _, id := range []uint32{27, 3, 9} {
		same.add(id)
	}
	for _, id := range []uint32{3, 9} {
		missing.add(id)
	}
	for _, id := range []uint32{3, 9, 27, 9} {
		repeated.add(id)
	}
	for _, id := range []uint32{3, 9, 28} {
		swapped.add(id)
	}
	if same != want {
		t.Error("order changed the multiset identity")
	}
	for name, s := range map[string]sums{"missing": missing, "repeated": repeated, "swapped": swapped} {
		if s == want {
			t.Errorf("%s ID not detected", name)
		}
	}
}

func TestPayloadChecksum(t *testing.T) {
	g := newPayloadGen(7, 64)
	buf := make([]byte, 64)
	g.fill(buf, 12345)
	if seq, ok := g.check(buf); !ok || seq != 12345 {
		t.Fatalf("check = %d, %v", seq, ok)
	}
	buf[40] ^= 1
	if _, ok := g.check(buf); ok {
		t.Error("corrupted payload passed the check")
	}
	if _, ok := g.check(buf[:63]); ok {
		t.Error("short payload passed the check")
	}
}
