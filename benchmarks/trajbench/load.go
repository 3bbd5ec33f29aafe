package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed operation. All times are offsets from the start of
// the loop that produced it. In a closed loop due == start (a worker
// sends when its previous reply arrived); in an open loop due is the
// scheduled send time, so end−due counts the wait a stall imposes on the
// requests queued behind it, and start−due is how late the generator ran.
type sample struct {
	due, start, end time.Duration
	ok              bool
	kind            opKind
}

// opKind tags a sample with the operation it timed, so one loop can carry
// a traffic mix and still report searches and mutations apart.
type opKind uint8

const (
	opSearch opKind = iota
	opAdd
	opUpdate
	opDelete
)

// latency is the time from when the operation was due to its completion.
func (s sample) latency() time.Duration { return s.end - s.due }

// opFunc runs operation i on behalf of a worker and reports what it was
// and whether it succeeded with a correct-looking answer.
type opFunc func(worker, i int) (opKind, bool)

// closedLoop runs op from `workers` goroutines, each sending its next
// operation only after the previous one returned, until dur has elapsed
// or ctx is done. Operation indexes are handed out from one shared
// counter so the input sequence does not depend on worker speed.
func closedLoop(ctx context.Context, workers int, dur time.Duration, op opFunc) []sample {
	var next atomic.Int64
	per := make([][]sample, workers)
	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]sample, 0, 4096)
			for ctx.Err() == nil {
				start := time.Since(begin)
				if start >= dur {
					break
				}
				i := int(next.Add(1) - 1)
				kind, ok := op(w, i)
				buf = append(buf, sample{due: start, start: start, end: time.Since(begin), ok: ok, kind: kind})
			}
			per[w] = buf
		}(w)
	}
	wg.Wait()
	return flatten(per)
}

// openLoop sends operation i at begin + i/rate regardless of how earlier
// operations fared: `conns` workers take the next due operation from a
// shared counter, sleep until it is due, and run it. When every worker is
// busy past a due time the operation starts late — that lateness is in
// the sample (start−due) and inside its latency (end−due), which is what
// keeps a stall from being measured once and hidden from everything that
// queued behind it (coordinated omission).
func openLoop(ctx context.Context, conns int, rate float64, dur time.Duration, op opFunc) []sample {
	total := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	per := make([][]sample, conns)
	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]sample, 0, total/conns+16)
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= total {
					break
				}
				due := time.Duration(i) * interval
				if wait := due - time.Since(begin); wait > 0 {
					if !sleepCtx(ctx, wait) {
						break
					}
				}
				start := time.Since(begin)
				kind, ok := op(w, i)
				buf = append(buf, sample{due: due, start: start, end: time.Since(begin), ok: ok, kind: kind})
			}
			per[w] = buf
		}(w)
	}
	wg.Wait()
	return flatten(per)
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the
// full sleep happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func flatten(per [][]sample) []sample {
	n := 0
	for _, p := range per {
		n += len(p)
	}
	out := make([]sample, 0, n)
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// loopStats summarizes the samples of one timed interval.
type loopStats struct {
	n         int       // operations attempted in the interval
	failed    int       // of which failed, were refused, timed out or answered wrongly
	lat       []float64 // latency from due time, ms, of the successful ones, ascending
	p50       float64   // median of lat
	tailRatio float64   // median over tailParts equal sub-intervals of p95 ÷ p50
	tail      float64   // the highest percentile lat supports, ms
	tailQ     float64   // which percentile that is
	max       float64   // the slowest successful operation, ms
	maxAt     float64   // when it was due, s into the loop
	perSec    float64   // successful operations per second of the interval
	lagP99    float64   // generator lateness (start−due) p99, ms
}

// q is the p-quantile of the successful operations' latency, ms.
func (st loopStats) q(p float64) float64 { return percentile(st.lat, p) }

// tailParts is how many equal sub-intervals the tail ratio is taken over;
// one with fewer than minPartSamples successful operations is left out
// (its p95 would rest on a handful of values).
const (
	tailParts      = 8
	minPartSamples = 40
)

// summarize reduces the samples that were due in [from, to) and whose
// kind passes keep.
func summarize(samples []sample, from, to time.Duration, keep func(opKind) bool) loopStats {
	var lag []float64
	var st loopStats
	parts := make([][]float64, tailParts)
	for _, s := range samples {
		if s.due < from || s.due >= to || !keep(s.kind) {
			continue
		}
		st.n++
		lag = append(lag, ms(s.start-s.due))
		if !s.ok {
			st.failed++
			continue
		}
		l := ms(s.latency())
		st.lat = append(st.lat, l)
		if l > st.max {
			st.max, st.maxAt = l, s.due.Seconds()
		}
		i := int(int64(tailParts) * int64(s.due-from) / int64(to-from))
		parts[i] = append(parts[i], l)
	}
	sort.Float64s(st.lat)
	st.p50 = st.q(0.5)
	st.tailQ = tailQuantile(len(st.lat))
	st.tail = st.q(st.tailQ)
	st.lagP99 = percentile(sortedCopy(lag), 0.99)
	st.perSec = float64(len(st.lat)) / (to - from).Seconds()
	// The tail is also taken relative to the median of its own sub-interval,
	// so that a stretch in which the host slows every operation moves both
	// and cancels: a whole-window p95 or p99 in ms follows the host's worst
	// second, not the program.
	var ratios []float64
	for _, p := range parts {
		if len(p) >= minPartSamples {
			sorted := sortedCopy(p)
			ratios = append(ratios, percentile(sorted, 0.95)/percentile(sorted, 0.5))
		}
	}
	if len(ratios) == 0 { // too few operations to cut up (toy scales, short sweeps)
		ratios = []float64{st.q(0.95) / st.p50}
	}
	st.tailRatio = median(ratios)
	return st
}

func anyKind(opKind) bool        { return true }
func searchKind(k opKind) bool   { return k == opSearch }
func mutationKind(k opKind) bool { return k != opSearch }
