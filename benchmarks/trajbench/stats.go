package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit — the shape of every entry
// of the result line's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered name → metric table: insertion order is kept so
// the printed report reads layer by layer, and a name set twice is a bug
// the smoke test catches through dup.
type metricSet struct {
	names []string
	m     map[string]metric
	dup   []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name string, v float64, unit string) {
	if _, seen := s.m[name]; seen {
		s.dup = append(s.dup, name)
		return
	}
	s.names = append(s.names, name)
	s.m[name] = metric{Value: v, Unit: unit}
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// tailQuantile is the highest percentile a sample of n supports: the
// largest of p99.9/p99/p95/p90 that leaves at least ten samples beyond
// it (the choosing-metrics rule); 0.5 when even p90 has fewer.
func tailQuantile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.90} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.5
}

// quartileRange is Q3 − Q1 with the exclusive quartile method of Python's
// statistics.quantiles(values, n=4); NaN for fewer than two values.
func quartileRange(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}

// quartileSpread is (Q3 − Q1) / median — the spread the driver computes,
// reproduced so `-compare` judges by the same rule.
func quartileSpread(xs []float64) float64 {
	med := math.Abs(median(xs))
	if med < 1e-300 {
		return math.NaN()
	}
	return quartileRange(xs) / med
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's high-water resident set (VmHWM) from
// /proc/self/status; where procfs is missing it falls back to the Go
// runtime's Sys total so the metric is still a real, non-zero number.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			rest, ok := strings.CutPrefix(line, "VmHWM:")
			if !ok {
				continue
			}
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, perr := strconv.ParseFloat(f[0], 64)
			if perr == nil {
				return kb / 1024
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// liveHeapMB is the heap still reachable after a full collection: what
// the index, its encoder and the benchmark's own inputs hold. Unlike the
// resident-set high-water mark it does not depend on when the collector
// happened to run, so it repeats from run to run.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// timeBatch measures fn by running it in batches until budget is spent
// (at least five calls) and returns the median per-call duration. A
// cheap call is batched so one timestamp pair brackets ≥ ~50 µs of work
// and the clock's own cost stays below a percent.
func timeBatch(budget time.Duration, fn func()) time.Duration {
	const minRuns = 5
	// Calibrate the batch size on a first call.
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	batch := 1
	if one < 50*time.Microsecond {
		batch = int(50*time.Microsecond/(one+1)) + 1
	}
	var per []float64
	runs := 0
	deadline := time.Now().Add(budget)
	for runs < minRuns || time.Now().Before(deadline) {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t))/float64(batch))
		runs += batch
	}
	return time.Duration(median(per))
}

func fmtMetric(name string, m metric) string {
	return fmt.Sprintf("%-40s %14.4f %s", name, m.Value, m.Unit)
}
