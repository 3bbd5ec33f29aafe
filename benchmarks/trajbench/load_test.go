package main

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// stallOnce is a fake handler: every call takes 1 ms, except call number
// `at`, which stalls for 200 ms.
func stallOnce(at int64) opFunc {
	var calls atomic.Int64
	return func(_, _ int) (opKind, bool) {
		d := time.Millisecond
		if calls.Add(1) == at {
			d = 200 * time.Millisecond
		}
		time.Sleep(d)
		return opSearch, true
	}
}

func slowSamples(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.latency() > 8*time.Millisecond {
			n++
		}
	}
	return n
}

// TestOpenLoopCountsTheQueueBehindAStall is the coordinated-omission
// check: at 100 requests a second on one connection, a single 200 ms stall
// delays the ~19 requests that came due while it lasted, and an open loop
// that times from the due time must show every one of them as slow. The
// closed-loop control sends nothing while it waits, so it sees the stall
// exactly once.
func TestOpenLoopCountsTheQueueBehindAStall(t *testing.T) {
	ctx := context.Background()
	open := openLoop(ctx, 1, 100, 600*time.Millisecond, stallOnce(10))
	if len(open) != 60 {
		t.Fatalf("open loop issued %d requests, want all 60 scheduled", len(open))
	}
	if slow := slowSamples(open); slow < 19 {
		t.Errorf("open loop shows %d slow requests; the stall must reach at least the 19 queued behind it", slow)
	}
	st := summarize(open, 0, 600*time.Millisecond, anyKind)
	if math.IsNaN(st.lagP99) || st.lagP99 < 100 {
		t.Errorf("generator lateness p99 = %.1f ms; the stall held the only connection for 200 ms", st.lagP99)
	}
	if st.n != 60 || st.failed != 0 {
		t.Errorf("summarize kept %d samples with %d failures, want 60 and 0", st.n, st.failed)
	}

	closed := closedLoop(ctx, 1, 600*time.Millisecond, stallOnce(10))
	if slow := slowSamples(closed); slow != 1 {
		t.Errorf("closed loop shows %d slow requests, want exactly the stalled one", slow)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if !math.IsNaN(quartileSpread([]float64{1})) {
		t.Error("one value has no spread")
	}
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {100, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		//lint:ignore floatcompare the candidates are literal constants
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
